"""metacrit: critical values for the meta-analysis of genuine and fake p-values.

Combines p-values with the ten classical methods, models fake p-values as
Beta(1,2) draws (the smaller of two uniforms), and produces critical-value
tables: closed forms where they exist, reproducible Monte Carlo replication
everywhere else.

Each public name below is loaded on first use (PEP 562, as in Scientific
Python SPEC 1), so ``import metacrit`` compiles this file alone and
``from metacrit import exact_quantile`` loads only the modules that name
needs.  Submodules import as usual: ``from metacrit import cli``.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_LAZY = {
    "QuantileEstimate": "estimation",
    "aggregate": "estimation",
    "confidence_interval": "estimation",
    "quantile_index": "estimation",
    "run_replica": "estimation",
    "simulate_quantiles": "estimation",
    "UnsupportedExactError": "exact",
    "exact_cdf": "exact",
    "exact_quantile": "exact",
    "has_exact_quantile": "exact",
    "Method": "methods",
    "MethodSpec": "methods",
    "Tail": "methods",
    "evaluate_batch": "methods",
    "evaluate_statistic": "methods",
    "parse_method": "methods",
    "DEFAULT_Q_LEVELS": "sampling",
    "DEFAULT_SEED": "sampling",
    "SimConfig": "sampling",
    "replica_stream": "sampling",
    "sample_pmatrix": "sampling",
    "default_grid": "tables",
    "generate_table": "tables",
    "lookup": "tables",
    "read_csv": "tables",
    "resolve_quantiles": "tables",
    "write_csv": "tables",
}

__all__ = list(_LAZY)


def __getattr__(name):
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
