"""metacrit: critical values for the meta-analysis of genuine and fake p-values.

Combines p-values with the ten classical methods, models fake p-values as
Beta(1,2) draws (the smaller of two uniforms), and produces critical-value
tables: closed forms where they exist, reproducible Monte Carlo replication
everywhere else.
"""

__version__ = "0.1.0"

from .estimation import (  # noqa: F401
    QuantileEstimate,
    aggregate,
    confidence_interval,
    quantile_index,
    run_replica,
    simulate_quantiles,
)
from .exact import (  # noqa: F401
    UnsupportedExactError,
    exact_cdf,
    exact_quantile,
    has_exact_quantile,
)
from .methods import (  # noqa: F401
    Method,
    MethodSpec,
    Tail,
    evaluate_batch,
    evaluate_statistic,
    parse_method,
)
from .sampling import (  # noqa: F401
    DEFAULT_Q_LEVELS,
    DEFAULT_SEED,
    SimConfig,
    replica_stream,
    sample_pmatrix,
)
from .tables import (  # noqa: F401
    CriticalValueTable,
    TableCell,
    default_grid,
    generate_table,
    lookup,
    read_csv,
    render_text,
    resolve_quantiles,
    write_csv,
)
