"""The process-wide observability switch, now tiered.

Instrumentation in the simulator, network, ledger, and harness is
gated on module attributes that hot paths (``Simulator._step``,
``Ledger.record_fast``, ``Network._deliver``) read directly --
tracing off must cost one attribute check and nothing more.

Since PR 8 the switch is a *mode*, not a boolean.  Four tiers:

``off``
    Nothing is recorded.
``counters``
    Metrics only.  Deliveries and ledger batches fold into the slotted
    :class:`repro.obs.metrics.MetricsBatch` accumulator, which is
    merged into the :class:`~repro.obs.metrics.MetricsRegistry` once
    per capture (not once per value).  No spans.
``sampled``
    Metrics (batched, as in ``counters``) plus a seeded head-based
    span sampler: a deterministic subset of ``transact`` / ``deliver``
    / ``experiment`` spans is traced; the rest record nothing.  Same
    seed => byte-identical sampled span set.
``full``
    The pre-PR 8 behaviour, byte-identical to the old
    ``obs.capture()``: every span, every per-value metric.

Three derived booleans are what instrumented code actually checks:

* :data:`ENABLED`  -- full-fidelity instrumentation (``full`` only):
  every delivery is traced, and ``counters`` / ``sampled`` keep
  batched metrics.
* :data:`COUNTERS` -- some metric recording is active (``counters`` /
  ``sampled`` / ``full``).
* :data:`TRACING`  -- spans may record (``sampled`` / ``full``).

:data:`SAMPLER` holds the :class:`SpanSampler` in ``sampled`` mode and
``None`` otherwise, so the per-packet check in ``Network.send`` is one
attribute read plus an ``is not None`` in every other mode.

``REPRO_OBS_MODE`` (read once at import) selects the process-default
mode; ``REPRO_OBS_SAMPLE`` / ``REPRO_OBS_SEED`` configure the default
sampler.  :func:`repro.obs.capture` and the CLI's ``--obs-mode`` flag
select per-run modes on top.
"""

from __future__ import annotations

import os
import random
from typing import Dict, Optional, Tuple

__all__ = [
    "MODES",
    "MODE",
    "ENABLED",
    "COUNTERS",
    "TRACING",
    "SAMPLER",
    "SpanSampler",
    "set_mode",
    "resolve_mode",
    "sample",
    "state",
    "restore",
    "enable",
    "disable",
    "is_enabled",
]

#: The recognised tiers, cheapest first.
MODES: Tuple[str, ...] = ("off", "counters", "sampled", "full")

#: Default head-sampling rate for the hot span kinds.
DEFAULT_SAMPLE_RATE = 0.01


class SpanSampler:
    """A seeded head-based sampler with per-span-kind rates.

    Each span kind (``"transact"``, ``"deliver"``, ``"experiment"``,
    ...) gets its own deterministic decision stream: the n-th decision
    for a kind is ``Random(f"{seed}:{kind}").random() < rate``, with
    the stream advancing one draw per decision.  Decisions are made in
    send/driver order, which is itself deterministic, so the same seed
    reproduces the same sampled span set byte-for-byte while a
    different seed picks a different subset.

    ``rates`` overrides the default rate per kind; a kind mapped to
    ``1.0`` is always traced, ``0.0`` never.
    """

    __slots__ = ("rate", "rates", "seed", "_streams", "decisions", "sampled")

    def __init__(
        self,
        rate: float = DEFAULT_SAMPLE_RATE,
        seed: int = 0,
        rates: Optional[Dict[str, float]] = None,
    ) -> None:
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"sample rate must be in [0, 1], not {rate!r}")
        self.rate = rate
        self.rates = dict(rates) if rates else {}
        for kind, kind_rate in self.rates.items():
            if not 0.0 <= kind_rate <= 1.0:
                raise ValueError(
                    f"sample rate for {kind!r} must be in [0, 1],"
                    f" not {kind_rate!r}"
                )
        self.seed = seed
        self._streams: Dict[str, random.Random] = {}
        self.decisions = 0
        self.sampled = 0

    def decide(self, kind: str) -> bool:
        """Advance ``kind``'s stream one draw; ``True`` means trace."""
        self.decisions += 1
        rate = self.rates.get(kind, self.rate)
        stream = self._streams.get(kind)
        if stream is None:
            # Seeding with a string is deterministic in CPython (the
            # bytes are hashed with sha512, not the randomized hash).
            stream = self._streams[kind] = random.Random(f"{self.seed}:{kind}")
        hit = stream.random() < rate
        if hit:
            self.sampled += 1
        return hit

    def fresh(self) -> "SpanSampler":
        """An unadvanced copy (same rates/seed) for a repeat run."""
        return SpanSampler(self.rate, self.seed, self.rates)

    def __repr__(self) -> str:
        return (
            f"SpanSampler(rate={self.rate}, seed={self.seed},"
            f" rates={self.rates})"
        )


def _env_mode() -> Optional[str]:
    mode = os.environ.get("REPRO_OBS_MODE", "").strip().lower()
    if not mode:
        return None
    if mode not in MODES:
        raise ValueError(
            f"REPRO_OBS_MODE must be one of {'/'.join(MODES)}, not {mode!r}"
        )
    return mode


def _env_sampler() -> SpanSampler:
    rate = float(os.environ.get("REPRO_OBS_SAMPLE", DEFAULT_SAMPLE_RATE))
    seed = int(os.environ.get("REPRO_OBS_SEED", 0))
    return SpanSampler(rate, seed)


#: The mode named by ``REPRO_OBS_MODE``, or ``None`` when unset.
ENV_MODE: Optional[str] = _env_mode()

#: The current tier.
MODE: str = ENV_MODE or "off"

#: Full-fidelity gate (``full`` only): per-value metrics and a span for
#: every delivery, checked again when each delivery fires.
ENABLED: bool = MODE == "full"

#: Any metric recording active (``counters`` / ``sampled`` / ``full``).
COUNTERS: bool = MODE in ("counters", "sampled", "full")

#: Spans may record (``sampled`` / ``full``).
TRACING: bool = MODE in ("sampled", "full")

#: The active :class:`SpanSampler` in ``sampled`` mode, else ``None``.
SAMPLER: Optional[SpanSampler] = _env_sampler() if MODE == "sampled" else None


def set_mode(mode: str, sampler: Optional[SpanSampler] = None) -> None:
    """Install ``mode`` (and, for ``sampled``, its sampler) process-wide.

    Recomputes every derived gate.  ``sampler`` defaults to a fresh
    environment-configured :class:`SpanSampler` when ``sampled`` is
    selected without one; it is ignored for other modes.
    """
    global MODE, ENABLED, COUNTERS, TRACING, SAMPLER
    if mode not in MODES:
        raise ValueError(f"mode must be one of {'/'.join(MODES)}, not {mode!r}")
    MODE = mode
    ENABLED = mode == "full"
    COUNTERS = mode in ("counters", "sampled", "full")
    TRACING = mode in ("sampled", "full")
    SAMPLER = (sampler or _env_sampler()) if mode == "sampled" else None


def resolve_mode(mode: Optional[str]) -> str:
    """The capture-time mode: explicit arg, else env, else ``full``.

    ``obs.capture()`` with no arguments must stay byte-identical to
    the pre-tier behaviour, so its default is ``full`` -- unless the
    environment pins ``REPRO_OBS_MODE``, which wins over the default
    (but never over an explicit argument).
    """
    if mode is not None:
        if mode not in MODES:
            raise ValueError(
                f"mode must be one of {'/'.join(MODES)}, not {mode!r}"
            )
        return mode
    return ENV_MODE or "full"


def sample(kind: str) -> bool:
    """Should an explicitly instrumented site trace this span kind?

    ``True`` in every mode except ``sampled``, where the seeded
    sampler decides (advancing ``kind``'s stream one draw).  In
    ``off`` / ``counters`` the tracer hands back a no-op span anyway,
    so returning ``True`` costs nothing.
    """
    sampler = SAMPLER
    return sampler is None or sampler.decide(kind)


def state() -> Tuple[str, Optional[SpanSampler]]:
    """The restorable (mode, sampler) pair for nested captures."""
    return MODE, SAMPLER


def restore(saved: Tuple[str, Optional[SpanSampler]]) -> None:
    """Reinstall a pair captured by :func:`state`."""
    mode, sampler = saved
    global MODE, ENABLED, COUNTERS, TRACING, SAMPLER
    MODE = mode
    ENABLED = mode == "full"
    COUNTERS = mode in ("counters", "sampled", "full")
    TRACING = mode in ("sampled", "full")
    SAMPLER = sampler if mode == "sampled" else None


def enable() -> None:
    """Turn full observability on for the whole process (legacy API)."""
    set_mode("full")


def disable() -> None:
    """Turn observability off (the default)."""
    set_mode("off")


def is_enabled() -> bool:
    """Is *any* tier active?  (``full`` for the legacy boolean view.)"""
    return MODE != "off"
