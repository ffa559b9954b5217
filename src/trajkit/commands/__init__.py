"""The CLI's command bodies; ``trajkit.cli.main`` imports the one module it runs."""
