"""The repository's benchmark (``python3 perfbench/run.py``); see README.md."""
