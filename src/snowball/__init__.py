"""Semi-supervised learning at desk scale.

A student network learns from a few labels plus consistency with two
weight-averaged guides (teacher and master); the master repeatedly picks out
the unlabelled samples nearest its class centers, pseudo-labels them and
folds them into training, growing the labelled set like a snowball.

The package namespace holds the Python API (`ExperimentConfig`,
`gen_two_moons`, `split`, `run_algorithm`), the helpers behind the command
line (`DataSpec`, `benchmark_two_moons`, `benchmark_blobs`, `make_dataset`,
`run_one`, `verify_manifest`, `RunRecord`, `IterationRow`) and the error
types. Everything else is imported from its module, e.g.
`snowball.network` or `snowball.discovery`.
"""

from __future__ import annotations

from .cli import (DataSpec, benchmark_blobs, benchmark_two_moons, make_dataset,
                  run_one, verify_manifest)
from .data import gen_two_moons, split
from .errors import ConfigError, DataError, DivergenceError, NumericsError, SnowballError
from .orchestrator import run_algorithm
from .records import IterationRow, RunRecord
from .training import ExperimentConfig

__version__ = "0.1.0"
