"""Self-tests of the benchmark (``python3 -m pytest bench/tests``)."""
