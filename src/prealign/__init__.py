"""Random-noise pretraining for feedback-alignment networks.

A numpy library for studying what training on pure noise does to a network
that learns through fixed random feedback connections: forward/backward
passes, the noise pretraining loop, alignment and dimensionality metrics,
dataset ingestion, and experiment presets with a small CLI.

Names are imported from their modules (``from prealign.net import
init_mlp``); the package itself exports only ``__version__``.
"""

__version__ = "0.1.0"

# loaded with the package, as when it re-exported their names
from . import data, errors, learn, metrics, net, noise, records, seeds  # noqa: F401
