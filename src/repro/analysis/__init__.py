"""Statistics and reporting for experiment results.

The paper reports its evaluation as Tukey boxplots (Figs. 9-12).
:mod:`repro.analysis.stats` computes the identical statistics (median,
quartiles, 1.5 IQR whiskers, outliers); :mod:`repro.analysis.report`
renders them as text tables and ASCII boxplots so every benchmark can
print the figure it reproduces.  :mod:`repro.analysis.histogram` is the
streaming counterpart: a mergeable log-bucket sketch for quantiles over
samples nobody keeps (span attribution, the fleet store).
"""

from repro import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.stats": ("TukeyStats", "summarize"),
    "repro.analysis.report": (
        "ascii_boxplot", "format_duration", "render_table", "stats_csv",
        "stats_table",
    ),
})
