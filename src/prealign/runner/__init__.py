"""Experiment orchestration: configs, presets, the runner, and emission."""
