"""Analysis toolkit: series, statistics, ASCII figures, tables.

Everything the benchmark harness needs to turn simulation results into
the paper's figures and into paper-versus-measured tables, with zero
dependencies beyond the standard library.
"""

from .._lazy import lazy_exports

__all__ = [
    "ascii_linear",
    "ascii_semilog",
    "Series",
    "format_dat",
    "mean_series",
    "write_dat",
    "LinearFit",
    "Summary",
    "geometric_mean",
    "linear_fit",
    "percentile",
    "summarize",
    "render_kv",
    "render_table",
]

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".plotting": ("ascii_linear", "ascii_semilog"),
        ".series": ("Series", "format_dat", "mean_series", "write_dat"),
        ".stats": (
            "LinearFit",
            "Summary",
            "geometric_mean",
            "linear_fit",
            "percentile",
            "summarize",
        ),
        ".tables": ("render_kv", "render_table"),
    },
)
