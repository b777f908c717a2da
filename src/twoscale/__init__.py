"""Two-scale refinement equations, Bernoulli convolutions, and linear
independence analysis of finite wavelet systems."""

import sys

from .errors import TwoscaleError

__version__ = "0.1.0"

__all__ = [
    "TwoscaleError",
    "bernoulli",
    "numerics",
    "refinement",
    "serialize",
    "wavelet_system",
    "__version__",
]

# loaded on first access (PEP 562), so that a refinement or Bernoulli command
# does not compile the wavelet-system stack it never runs
_SUBMODULES = frozenset(
    ("bernoulli", "generators", "numerics", "refinement", "serialize", "wavelet_system")
)


def __getattr__(name: str):
    if name in _SUBMODULES:
        # the import statement's own path, which -X importtime times and lists
        __import__(f"{__name__}.{name}")
        return sys.modules[f"{__name__}.{name}"]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | _SUBMODULES)
