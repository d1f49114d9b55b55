"""Choices and defaults of the ``repro`` command line.

The parser needs the paper's artifact names, the verify matrix's
configuration names and the study runner's retry and snapshot defaults
before any subcommand runs.  They are declared here, below
:mod:`repro.analysis`, :mod:`repro.verify` and :mod:`repro.par` (which
import them from this module), so building the parser loads none of
those layers: ``repro classify`` never loads the simulator.
"""

ALL_ARTIFACTS = (
    "fig5a", "fig5b", "fig6", "fig7", "fig8", "fig9",
    "fig10", "fig11", "fig12", "fig13", "fig14", "fig15",
    "fig16", "fig17", "table1", "table2",
)
"""Every table and figure :func:`repro.analysis.regenerate` rebuilds."""

CONFIG_NAMES = ("workers", "no-memo", "resume", "state-cold",
                "state-warm", "strict-archive", "tolerant-archive")
"""The configurations of :func:`repro.verify.default_matrix`, in order."""

DEFAULT_SNAPSHOT_STRIDE = 8
"""Cycles between snapshots.  Smaller strides cut tail replay, larger
strides cut disk and capture time; 8 keeps the worst-case tail under
one stride while a 60-cycle campaign stores only 7 snapshots."""

DEFAULT_MAX_RETRIES = 2
"""Re-dispatches a crashed shard gets before the study aborts."""

DEFAULT_BACKOFF_BASE = 0.5
"""Seconds before the first retry round; each later round doubles it."""
