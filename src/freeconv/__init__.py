"""freeconv: free probability convolutions and infinite divisibility checks.

The public names below load their module on first access (PEP 562), so
`import freeconv` costs nothing until one is used, and the moment-sequence
modules never load numpy.
"""

import sys

__version__ = "0.1.0"

# verify's suites and default seed; the CLI parser reads them without
# importing verify
DEFAULT_SEED = 1418
SUITES = ("all", "identities", "densities", "regularity")

_EXPORTS = {
    "catalog": (
        "LAWS",
        "MeasureSpec",
        "boolean_cumulants_of",
        "catalog_density",
        "catalog_moments",
        "free_cumulants_of",
        "moments_of",
        "push_square",
        "reflect",
    ),
    "conv": (
        "boolean_add",
        "boolean_power",
        "commutator",
        "free_add",
        "free_add_density",
        "free_mult",
        "free_power",
        "free_power_fid",
        "support_edge",
    ),
    "idclass": (
        "FreeTriplet",
        "LevyMeasure",
        "RegularForm",
        "RModel",
        "from_regular_form",
        "kurtosis_check",
        "main3_factor",
        "positivity_scan",
        "to_regular_form",
    ),
    "ncpart": ("SeqN", "SetPartition", "catalan"),
    "transforms": ("cauchy", "s_series", "stieltjes_invert"),
    "verify": ("run_verify",),
}
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_ORIGIN]


def _submodule(name):
    # __import__ takes the interpreter's own import path, which -X importtime
    # reports module by module; importlib.import_module's is not reported
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name):
    if name in _EXPORTS:  # the submodules, as attributes of the package
        return _submodule(name)
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_ORIGIN[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
