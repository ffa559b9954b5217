import json
import random
import string
import zlib

import pytest

from trajkit.actions import Action, ActionKind, Point
from trajkit.dialects import (
    ArtifactEntry,
    FAILURE_BAD_PARAMS,
    FAILURE_NO_ACTION,
    FAILURE_UNSUPPORTED,
    ReferenceEntry,
    UnrepresentableActionError,
    UnsupportedFeatureError,
    dialect_ids,
    get_dialect,
)

ALL_DIALECTS = dialect_ids()


def sample_actions():
    return [
        Action(ActionKind.CLICK, point=Point(616, 211)),
        Action(ActionKind.CLICK, point=Point(0, 0)),
        Action(ActionKind.LONG_PRESS, point=Point(500, 500)),
        Action(ActionKind.SCROLL, point=Point(616, 685), direction="up"),
        Action(ActionKind.SCROLL, point=Point(300, 300), direction="left"),
        Action(ActionKind.TYPE, text="coffee shops"),
        Action(ActionKind.TYPE, text="line\nbreak 'quoted'", submit=True),
        Action(ActionKind.OPEN, app="maps"),
        Action(ActionKind.PRESS, button="ENTER"),
        Action(ActionKind.PRESS, button="BACK"),
        Action(ActionKind.WAIT, duration=2.0),
        Action(ActionKind.STOP),
    ]


class TestXmlToolcall:
    def test_system_button_rollout_example(self, xml_dialect):
        text = ('<tool_call>\n{"name": "device_tools", "arguments": '
                '{"action": "system_button", "button": "Enter"}}\n</tool_call>')
        parsed = xml_dialect.parse_response(text)
        assert parsed.action == Action(ActionKind.PRESS, button="ENTER")

    def test_swipe_rollout_example(self, xml_dialect):
        text = ('<thinking>\nscroll to see more\n</thinking>\n<tool_call>\n'
                '{"arguments": {"action": "swipe", "coordinate": [259, 499], '
                '"coordinate2": [267, 239]}}\n</tool_call>\n'
                '<conclusion>\nScroll down to view more.\n</conclusion>')
        parsed = xml_dialect.parse_response(text, dims=(420.5, 728.5))
        assert parsed.action == Action(ActionKind.SCROLL, point=Point(616, 685),
                                       direction="up")
        assert parsed.thought == "scroll to see more"
        assert parsed.conclusion == "Scroll down to view more."

    def test_click_pixel_conversion(self, xml_dialect):
        text = '<tool_call>{"arguments": {"action": "click", "coordinate": [259, 154]}}</tool_call>'
        parsed = xml_dialect.parse_response(text, dims=(420.5, 728.5))
        assert parsed.action == Action(ActionKind.CLICK, point=Point(616, 211))

    def test_untagged_json_accepted_with_flag(self, xml_dialect):
        text = '{"name": "x", "arguments": {"action": "terminate", "status": "success"}}'
        parsed = xml_dialect.parse_response(text)
        assert parsed.action.kind is ActionKind.STOP
        assert any("without" in w for w in parsed.warnings)

    def test_multiple_blocks_first_wins(self, xml_dialect):
        text = ('<tool_call>{"arguments": {"action": "wait"}}</tool_call>'
                '<tool_call>{"arguments": {"action": "terminate"}}</tool_call>')
        parsed = xml_dialect.parse_response(text)
        assert parsed.action.kind is ActionKind.WAIT
        assert any("2 tool_call" in w for w in parsed.warnings)

    def test_unknown_name_unsupported(self, xml_dialect):
        text = '<tool_call>{"arguments": {"action": "pinch", "coordinate": [1,1]}}</tool_call>'
        parsed = xml_dialect.parse_response(text)
        assert parsed.failure == FAILURE_UNSUPPORTED
        assert not parsed.recognized

    def test_missing_coordinate_bad_params(self, xml_dialect):
        text = '<tool_call>{"arguments": {"action": "click"}}</tool_call>'
        parsed = xml_dialect.parse_response(text)
        assert parsed.failure == FAILURE_BAD_PARAMS
        assert parsed.recognized

    def test_degenerate_swipe_bad_params(self, xml_dialect):
        text = ('<tool_call>{"arguments": {"action": "swipe", '
                '"coordinate": [100, 100], "coordinate2": [100, 100]}}</tool_call>')
        parsed = xml_dialect.parse_response(text)
        assert parsed.failure == FAILURE_BAD_PARAMS

    def test_no_action_block(self, xml_dialect):
        parsed = xml_dialect.parse_response("<thinking>hmm</thinking> nothing here")
        assert parsed.failure == FAILURE_NO_ACTION

    def test_garbage_json_no_action(self, xml_dialect):
        parsed = xml_dialect.parse_response("<tool_call>{]</tool_call>")
        assert parsed.failure == FAILURE_NO_ACTION
        assert not parsed.recognized


class TestThoughtAction:
    def test_box_token_click(self, ta_dialect):
        parsed = ta_dialect.parse_response(
            "Thought: tap the button\n"
            "Action: click(start_box='<|box_start|>(500,500)<|box_end|>')")
        assert parsed.action == Action(ActionKind.CLICK, point=Point(500, 500))
        assert parsed.thought == "tap the button"

    def test_type_submit_marker_stripped(self, ta_dialect):
        parsed = ta_dialect.parse_response("Action: type(content='hello\\n')")
        assert parsed.action.text == "hello"
        assert parsed.action.submit

    def test_escaped_quotes(self, ta_dialect):
        parsed = ta_dialect.parse_response(
            "Action: type(content='it\\'s \\\"fine\\\"')")
        assert parsed.action.text == 'it\'s "fine"'

    def test_scroll_direction_literal(self, ta_dialect):
        parsed = ta_dialect.parse_response(
            "Action: scroll(start_box='(100,200)', direction='down')")
        assert parsed.action == Action(ActionKind.SCROLL, point=Point(100, 200),
                                       direction="down")

    def test_drag_outside_unified_space(self, ta_dialect):
        parsed = ta_dialect.parse_response(
            "Action: drag(start_box='(1,1)', end_box='(2,2)')")
        assert parsed.failure == FAILURE_UNSUPPORTED

    def test_finished_carries_conclusion(self, ta_dialect):
        parsed = ta_dialect.parse_response("Action: finished(content='all done')")
        assert parsed.action.kind is ActionKind.STOP
        assert parsed.conclusion == "all done"

    def test_action_keyword_inside_thought(self, ta_dialect):
        parsed = ta_dialect.parse_response(
            "Thought: the best Action: is pressing back\n"
            "Action: press_back()")
        assert parsed.action == Action(ActionKind.PRESS, button="BACK")

    def test_wait_not_in_support(self, ta_dialect):
        assert ActionKind.WAIT not in ta_dialect.action_support
        with pytest.raises(UnrepresentableActionError):
            ta_dialect.render_response(Action(ActionKind.WAIT, duration=1.0))

    def test_missing_action_line(self, ta_dialect):
        parsed = ta_dialect.parse_response("Thought: still thinking")
        assert parsed.failure == FAILURE_NO_ACTION


class TestPlainJson:
    def test_canonical_click(self, json_dialect):
        parsed = json_dialect.parse_response('{"action": "CLICK", "point": [10, 20]}')
        assert parsed.action == Action(ActionKind.CLICK, point=Point(10, 20))

    def test_unknown_kind(self, json_dialect):
        parsed = json_dialect.parse_response('{"action": "HOVER", "point": [1, 2]}')
        assert parsed.failure == FAILURE_UNSUPPORTED

    def test_fixed_thought_unsupported(self, json_dialect):
        with pytest.raises(UnsupportedFeatureError):
            json_dialect.render_fixed_thought("anything")

    def test_no_thought_extracted(self, json_dialect):
        parsed = json_dialect.parse_response('{"action": "STOP", "status": "finish"}')
        assert parsed.thought is None

    def test_model_points_rounded_and_clamped_where_ground_truth_is_rejected(
            self, json_dialect):
        from trajkit.store import decode_action

        params = {"point": [1200, 499.6], "duration": "2"}
        parsed = json_dialect.parse_response(json.dumps({"action": "LONG_PRESS", **params}))
        assert parsed.action == Action(ActionKind.LONG_PRESS, point=Point(1000, 500),
                                       duration=2.0)
        assert any("clamped" in w for w in parsed.warnings)
        with pytest.raises(ValueError, match="not an integer"):
            decode_action("LONG_PRESS", params)
        with pytest.raises(ValueError, match="outside"):
            decode_action("LONG_PRESS", {**params, "point": [1200, 499]})

    @pytest.mark.parametrize("duration", ["soon", [1], {"s": 1}])
    def test_non_numeric_duration_is_bad_params(self, json_dialect, duration):
        parsed = json_dialect.parse_response(
            json.dumps({"action": "WAIT", "duration": duration}))
        assert parsed.failure == FAILURE_BAD_PARAMS


def _xml_call(args: str) -> str:
    return f'<tool_call>{{"name": "mobile_use", "arguments": {{{args}}}}}</tool_call>'


#: (dialect, response) -> (failure, recognized, warning): each refusal a
#: dialect makes, and the failure ``parse_response`` maps it to.
REFUSALS = [
    ("xml-toolcall", _xml_call('"action": "type"'),
     FAILURE_BAD_PARAMS, True, "type requires text"),
    ("xml-toolcall", _xml_call('"action": "open", "text": ""'),
     FAILURE_BAD_PARAMS, True, "open requires an app name"),
    ("xml-toolcall", _xml_call('"action": "system_button", "button": "Menu"'),
     FAILURE_BAD_PARAMS, True, "unknown system button 'Menu'"),
    ("xml-toolcall", '<tool_call>{"arguments": {"action": "wait"}</tool_call>',
     FAILURE_NO_ACTION, False, "tool call payload is not valid JSON"),
    ("thought-action", "Action: click(start_box='the search bar')",
     FAILURE_BAD_PARAMS, True, "cannot parse coordinates from 'the search bar'"),
    ("thought-action", "Action: scroll(start_box='(10,10)', direction='sideways')",
     FAILURE_BAD_PARAMS, True, "scroll direction must be one of ('up', 'down', 'left', 'right')"),
    ("thought-action", "Action: type()",
     FAILURE_BAD_PARAMS, True, "type requires content"),
    ("thought-action", "Action: open_app(app_name='')",
     FAILURE_BAD_PARAMS, True, "open_app requires app_name"),
    ("thought-action", "Action: click()",
     FAILURE_BAD_PARAMS, True, "'start_box'"),
    ("thought-action", "Action: tap the search bar",
     FAILURE_BAD_PARAMS, True, "Action line does not contain a call"),
]


@pytest.mark.parametrize("dialect_id, text, failure, recognized, warning", REFUSALS,
                         ids=[f"{row[0]}-{i}" for i, row in enumerate(REFUSALS)])
def test_refusal_maps_to_its_failure(dialect_id, text, failure, recognized, warning):
    parsed = get_dialect(dialect_id).parse_response(text)
    assert (parsed.action, parsed.failure, parsed.recognized) == (None, failure, recognized)
    assert parsed.warnings[-1] == warning


def test_thought_action_prompt_without_thinking(ta_dialect):
    text = ta_dialect.user_text("find a cafe", None, "", enable_thinking=False)
    assert "## Output Format\n```\nAction: ...\n```" in text
    assert "- Output the action line only." in text
    assert "Thought:" not in text


class TestRoundTrip:
    @pytest.mark.parametrize("dialect_id", ALL_DIALECTS)
    def test_render_parse_recovers_action(self, dialect_id):
        dialect = get_dialect(dialect_id)
        for action in sample_actions():
            if action.kind not in dialect.action_support:
                continue
            text = dialect.render_response(action, thought="t", conclusion="c") \
                if dialect.supports_thought else dialect.render_response(action)
            parsed = dialect.parse_response(text)
            assert parsed.ok, f"{dialect_id} failed on {action}: {parsed.warnings}"
            assert parsed.action == action

    def test_pixel_space_conversion_commutes(self, xml_dialect):
        # Rendering at native dims then parsing equals the identity in
        # per-mille space for dims that divide the grid exactly.
        action = Action(ActionKind.CLICK, point=Point(616, 211))
        text = xml_dialect.render_response(action, dims=(500.0, 2000.0))
        parsed = xml_dialect.parse_response(text, dims=(500.0, 2000.0))
        assert parsed.action == action


class TestHistoryRendering:
    def test_reference_entry_golden(self, xml_dialect):
        entry = ReferenceEntry(index=0,
                               action=Action(ActionKind.CLICK, point=Point(616, 211)))
        assert xml_dialect.render_history_entry(entry) == \
            "Step 1: CLICK(point=(616,211));"

    def test_artifact_embeds_conclusion(self, xml_dialect):
        entry = ArtifactEntry(index=2,
                              action=Action(ActionKind.PRESS, button="ENTER"),
                              conclusion="press enter")
        assert xml_dialect.render_history_entry(entry) == "Step 3: press enter;"

    def test_artifact_without_conclusion_uses_encoding(self, xml_dialect):
        entry = ArtifactEntry(index=0, action=Action(ActionKind.STOP))
        assert "STOP(status=finish)" in xml_dialect.render_history_entry(entry)

    def test_empty_history_renders_nothing(self, xml_dialect):
        assert " ".join([]) == ""

    def test_thought_action_artifact_carries_thought(self, ta_dialect):
        entry = ArtifactEntry(index=1,
                              action=Action(ActionKind.PRESS, button="HOME"),
                              thought="go home")
        rendered = ta_dialect.render_history_entry(entry)
        assert "Thought: go home" in rendered
        assert "press_home()" in rendered

    def test_unrepresentable_raises(self, ta_dialect):
        entry = ReferenceEntry(index=0, action=Action(ActionKind.WAIT, duration=1.0))
        with pytest.raises(UnrepresentableActionError):
            ta_dialect.render_history_entry(entry)


class TestFixedThought:
    def test_thought_action_prefix(self, ta_dialect):
        assert ta_dialect.render_fixed_thought("T") == "Thought: T\nAction:"

    def test_xml_prefix_wraps_thinking(self, xml_dialect):
        assert xml_dialect.render_fixed_thought("T") == "<thinking>\nT\n</thinking>\n"


class TestTotality:
    """Parsing never raises: every string yields success or a typed failure."""

    CORPUS_SIZE = 100_000

    @pytest.mark.parametrize("dialect_id", ALL_DIALECTS)
    def test_fuzz_never_raises(self, dialect_id):
        dialect = get_dialect(dialect_id)
        # crc32, not hash(): a str's hash is salted per process.
        rng = random.Random(20240 + zlib.crc32(dialect_id.encode()) % 1000)
        alphabet = (string.ascii_letters + string.digits +
                    "{}[]()<>'\",:=\\ \n\t_|-")
        fragments = [
            "<tool_call>", "</tool_call>", "<thinking>", "</thinking>",
            "Action:", "Thought:", '{"action":', '"coordinate"', "start_box=",
            "click(", "'", '"', "finished(content=')", "[259, 499]",
        ]
        for i in range(self.CORPUS_SIZE // len(ALL_DIALECTS)):
            if i % 3 == 0:
                text = "".join(rng.choices(alphabet, k=rng.randrange(0, 60)))
            else:
                text = "".join(rng.choices(fragments + list(alphabet),
                                           k=rng.randrange(1, 25)))
            parsed = dialect.parse_response(text)
            assert (parsed.action is None) != (parsed.failure is None)

    @pytest.mark.parametrize("dialect_id", ALL_DIALECTS)
    def test_empty_input(self, dialect_id):
        parsed = get_dialect(dialect_id).parse_response("")
        assert parsed.failure == FAILURE_NO_ACTION

    def test_infinite_point_is_bad_params(self):
        parsed = get_dialect("plain-json").parse_response(
            '{"action": "CLICK", "point": [1e999, 0]}')
        assert parsed.failure == FAILURE_BAD_PARAMS

    def test_duration_beyond_a_float_is_bad_params(self):
        parsed = get_dialect("plain-json").parse_response(
            '{"action": "WAIT", "duration": 1' + "0" * 400 + "}")
        assert parsed.failure == FAILURE_BAD_PARAMS

    def test_box_beyond_a_float_is_bad_params(self):
        parsed = get_dialect("thought-action").parse_response(
            "Action: click(start_box='(" + "9" * 400 + ",1)')")
        assert parsed.failure == FAILURE_BAD_PARAMS

    def test_nan_duration_is_bad_params(self):
        parsed = get_dialect("plain-json").parse_response(
            '{"action": "WAIT", "duration": NaN}')
        assert parsed.failure == FAILURE_BAD_PARAMS

    def test_coordinate_beyond_a_float_is_bad_params(self):
        parsed = get_dialect("xml-toolcall").parse_response(
            '<tool_call>{"name": "mobile_use", "arguments": {"action": "click", '
            '"coordinate": [1' + "0" * 400 + ", 3]}}</tool_call>")
        assert parsed.failure == FAILURE_BAD_PARAMS


# hypothesis-driven round trip over generated actions
from hypothesis import given, settings, strategies as hst

permille = hst.integers(min_value=0, max_value=1000)
safe_text = hst.text(
    alphabet=hst.characters(blacklist_categories=("Cs", "Cc")),
    min_size=1, max_size=40,
).map(lambda s: s.strip()).filter(lambda s: s and not s.endswith("\n"))


def _scroll_points(direction):
    # keep the swipe pair strictly inside the frame so every dialect can
    # express the gesture (an edge start pointing off-frame is unrenderable)
    lo, hi = 300, 700
    return hst.builds(Point, hst.integers(lo, hi), hst.integers(lo, hi)).map(
        lambda p: Action(ActionKind.SCROLL, point=p, direction=direction))


action_strategy = hst.one_of(
    hst.builds(Point, permille, permille).map(
        lambda p: Action(ActionKind.CLICK, point=p)),
    hst.builds(Point, permille, permille).map(
        lambda p: Action(ActionKind.LONG_PRESS, point=p)),
    hst.sampled_from(["up", "down", "left", "right"]).flatmap(_scroll_points),
    safe_text.map(lambda t: Action(ActionKind.TYPE, text=t)),
    safe_text.map(lambda t: Action(ActionKind.OPEN, app=t)),
    hst.sampled_from(["HOME", "BACK", "ENTER"]).map(
        lambda b: Action(ActionKind.PRESS, button=b)),
    hst.just(Action(ActionKind.WAIT, duration=1.0)),
    hst.just(Action(ActionKind.STOP)),
)


class TestRoundTripProperty:
    @settings(max_examples=150, deadline=None)
    @given(action=action_strategy, dialect_id=hst.sampled_from(ALL_DIALECTS))
    def test_random_actions_round_trip(self, action, dialect_id):
        dialect = get_dialect(dialect_id)
        if action.kind not in dialect.action_support:
            return
        text = dialect.render_response(action)
        parsed = dialect.parse_response(text)
        assert parsed.ok, (dialect_id, action, parsed.warnings)
        assert parsed.action == action


class TestCoordinateCommutation:
    def test_parse_equals_posthoc_normalization(self, xml_dialect):
        from trajkit.actions import normalize_point
        for raw, dims in (((259, 154), (420.5, 728.5)),
                          ((12, 991), (1080, 2400)),
                          ((333, 77), (750, 1334))):
            text = ('<tool_call>{"arguments": {"action": "click", '
                    f'"coordinate": [{raw[0]}, {raw[1]}]}}}}</tool_call>')
            parsed = xml_dialect.parse_response(text, dims=dims)
            assert parsed.action.point == normalize_point(raw, dims)
