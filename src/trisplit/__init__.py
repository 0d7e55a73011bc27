"""Relaxed three-operator splitting for f1 + f2 + f3 with an envelope merit
function, a theoretical stepsize planner, an adaptive stepsize variant, a
Davis-Yin baseline, and a matrix-completion benchmark.

The top level re-exports each module's `__all__`, the one list that declares
that module's public names."""

from .core import *
from .proxlib import *
from .splitting import *
from .stepsize import *
from .baselines import *
from .bench import *

__version__ = "0.1.0"
