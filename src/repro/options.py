"""Execution options of one tracking run: hypothesis schedule and kernel backend.

:class:`TrackOptions` is the single place where the ``search`` and
``backend`` names are defined, validated and turned into fingerprint
tokens.  Every layer -- ``track_dense``, ``SMAnalyzer``, ``ParallelSMA``,
the degradation ladder, streaming, serving and the CLI -- reads the
tables below instead of keeping its own.  The schedules are described
in :mod:`repro.core.matching`, the backends in :mod:`repro.kernels`;
all three backends are bit-identical, and so are the two exact
schedules.

One rule separates the layers: ``track_dense`` and ``SMAnalyzer`` accept
every schedule, while the layers whose products promise bit-identity
with the reference (``ParallelSMA``, the degradation ladder, streaming
and serving) call :meth:`TrackOptions.validate` with ``exact=True`` and
so refuse the approximate ``"pyramid"``.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Hypothesis schedules, exact ones first.
SEARCH_MODES = ("exhaustive", "pruned", "pyramid")

#: Schedules whose product is bit-identical to exhaustive search.
EXACT_SEARCH_MODES = tuple(mode for mode in SEARCH_MODES if mode != "pyramid")

#: Kernel backends; every one is bit-identical to the NumPy reference.
BACKENDS = ("auto", "numpy", "native")


@dataclass(frozen=True)
class TrackOptions:
    """A validated (search schedule, kernel backend) pair."""

    search: str = "exhaustive"
    backend: str = "auto"

    def __post_init__(self) -> None:
        self.validate()

    def validate(self, exact: bool = False) -> "TrackOptions":
        """Raise ``ValueError`` unless the options are allowed; return self.

        ``exact=True`` is the rule of the bit-identical layers: only
        :data:`EXACT_SEARCH_MODES` are accepted.
        """
        if self.search not in SEARCH_MODES:
            raise ValueError(
                f"unknown search mode {self.search!r} "
                f"(choose from {', '.join(SEARCH_MODES)})"
            )
        if exact and self.search not in EXACT_SEARCH_MODES:
            raise ValueError(
                f"search mode {self.search!r} is approximate; this layer promises "
                f"bit-identical products (choose from {', '.join(EXACT_SEARCH_MODES)})"
            )
        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r} (choose from {', '.join(BACKENDS)})"
            )
        return self

    def checkpoint_token(self) -> str:
        """Stream-checkpoint fingerprint suffix; empty for the defaults.

        Defaults are omitted so checkpoints written before the schedule
        and backend existed still resume.  Non-default choices are
        recorded because a checkpoint's ledger (GE counts) depends on
        the schedule, and differently pinned runs must not share one.
        """
        token = ""
        if self.search != "exhaustive":
            token += f"|search={self.search}"
        if self.backend != "auto":
            token += f"|backend={self.backend}"
        return token

    def cache_token(self) -> str:
        """Result-cache key fragment; always spells out both choices.

        The fields are bit-identical across these choices, but a cached
        product's metadata records how it was produced, so separate
        keys keep its provenance honest.
        """
        return f"search={self.search};backend={self.backend};"
