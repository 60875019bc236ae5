"""Deterministic, seeded fault injection for the simulated devices.

The paper's Figure 8 headline (one or two I/O-intensive jobs saturate a
Cray CPU given a 32 MW SSD with read-ahead + write-behind) is derived
under perfectly reliable devices.  This module supplies the failure
path: a :class:`FaultInjector` makes a seeded per-request decision --
OK, transient ERROR, or SLOW (a latency spike) -- that the recovery
layer (:mod:`repro.sim.recovery`) turns into retries, backoff, timeouts
and, eventually, reported failures.

Determinism contract
--------------------
* the injector owns a private RNG stream derived from ``(seed,
  "faults")`` -- it never touches the disk model's rotational-latency
  stream, so enabling faults does not perturb the fault-free draws;
* with ``error_rate == slow_rate == 0`` the injector draws *nothing*
  and every decision is the shared OK singleton: a zero-rate plan is
  bit-identical to no plan at all;
* decisions are drawn in device-request order, which the event engine
  makes deterministic, so one ``(config, seed)`` pair always produces
  the identical fault schedule;
* draws come from a block filled lazily by ``random(size=k)``, which
  yields the same values in the same order as k scalar ``random()``
  calls; :meth:`FaultInjector.decide` and :meth:`FaultInjector.uniform`
  share the block, so their interleaving is preserved.

A :class:`FaultPlan` is the serializable form -- a (faults, recovery)
config pair loadable from JSON (``repro simulate --fault-plan plan.json``)
or from a compact inline spec (``--faults error=0.05,slow=0.1``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

from repro.sim.config import FaultConfig, RecoveryConfig, SimConfig
from repro.util.rng import derive_rng

#: U[0,1) values drawn from the generator at a time
_DRAW_BLOCK = 256


class FaultKind(Enum):
    OK = 0  #: the request completes normally
    ERROR = 1  #: transient error after the full service time
    SLOW = 2  #: the request completes, ``slow_factor`` times slower


@dataclass(frozen=True)
class FaultDecision:
    """One per-request verdict from the injector."""

    kind: FaultKind
    slow_factor: float = 1.0


#: Shared verdicts; OK is what every request gets on the fast path.
OK_DECISION = FaultDecision(FaultKind.OK)
ERROR_DECISION = FaultDecision(FaultKind.ERROR)


class FaultInjector:
    """Seeded per-request fault decisions over one device.

    ``seed`` is the simulation seed; ``config.seed`` overrides it so a
    fault schedule can be varied independently of the disk's rotational
    draws (or pinned while the workload seed sweeps).
    """

    def __init__(self, config: FaultConfig, *, seed: int = 0):
        self.config = config
        base = config.seed if config.seed is not None else seed
        self._rng = derive_rng(base, "faults")
        #: unused U[0,1) draws, next one last
        self._draws: list[float] = []
        #: False = the zero-rate fast path: no draws, shared OK verdicts
        self.active = config.injects
        self._slow = FaultDecision(FaultKind.SLOW, config.slow_factor)

    def decide(self) -> FaultDecision:
        """The verdict for the next device request (one draw when active)."""
        if not self.active:
            return OK_DECISION
        u = self.uniform()
        cfg = self.config
        if u < cfg.error_rate:
            return ERROR_DECISION
        if u < cfg.error_rate + cfg.slow_rate:
            return self._slow
        return OK_DECISION

    def uniform(self) -> float:
        """The next seeded U[0,1) draw (verdicts and backoff jitter)."""
        draws = self._draws
        if not draws:
            draws = self._draws = self._rng.random(_DRAW_BLOCK)[::-1].tolist()
        return draws.pop()


# -- the serializable plan ---------------------------------------------------

#: inline-spec key -> (FaultConfig field, converter)
_FAULT_KEYS = {
    "error": ("error_rate", float),
    "slow": ("slow_rate", float),
    "slow_factor": ("slow_factor", float),
    "crash_at": ("crash_at_s", float),
    "ssd_fail_at": ("ssd_fail_at_s", float),
    "seed": ("seed", int),
}

#: inline-spec key -> (RecoveryConfig field, converter)
_RECOVERY_KEYS = {
    "max_retries": ("max_retries", int),
    "backoff": ("backoff_base_s", float),
    "backoff_factor": ("backoff_factor", float),
    "backoff_cap": ("backoff_cap_s", float),
    "jitter": ("backoff_jitter", float),
    "timeout": ("timeout_s", float),
    "max_reflushes": ("max_reflushes", int),
    "reflush_delay": ("reflush_delay_s", float),
}


@dataclass(frozen=True)
class FaultPlan:
    """A fault schedule plus the recovery policy to run it under."""

    faults: FaultConfig = field(default_factory=FaultConfig)
    recovery: RecoveryConfig = field(default_factory=RecoveryConfig)

    def apply(self, config: SimConfig) -> SimConfig:
        """The same simulation, run under this plan."""
        return replace(config, faults=self.faults, recovery=self.recovery)

    def to_dict(self) -> dict:
        return {"faults": self.faults.to_dict(), "recovery": self.recovery.to_dict()}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build from a plain dict; either section may be omitted."""
        unknown = set(data) - {"faults", "recovery"}
        if unknown:
            raise ValueError(
                f"unknown fault-plan sections {sorted(unknown)}; "
                "expected 'faults' and/or 'recovery'"
            )
        faults = data.get("faults") or {}
        recovery = data.get("recovery") or {}
        return cls(
            faults=FaultConfig.from_dict(faults) if faults else FaultConfig(),
            recovery=(
                RecoveryConfig.from_dict(recovery) if recovery else RecoveryConfig()
            ),
        )

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Load a plan from a JSON file (the ``--fault-plan`` format)."""
        try:
            data = json.loads(Path(path).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ValueError(f"{path}: fault plan must be a JSON object")
        try:
            return cls.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad fault plan: {exc}") from exc

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_spec(cls, spec: str) -> "FaultPlan":
        """Parse an inline ``key=value,...`` spec (the ``--faults`` flag).

        Fault keys: ``error``, ``slow``, ``slow_factor``, ``crash_at``,
        ``ssd_fail_at``, ``seed``.  Recovery keys: ``max_retries``,
        ``backoff``, ``backoff_factor``, ``backoff_cap``, ``jitter``,
        ``timeout``, ``max_reflushes``, ``reflush_delay``.
        """
        fault_kw: dict = {}
        recovery_kw: dict = {}
        for item in spec.split(","):
            item = item.strip()
            if not item:
                continue
            if "=" not in item:
                raise ValueError(f"bad fault spec item {item!r}: expected key=value")
            key, _, raw = item.partition("=")
            key = key.strip()
            if key in _FAULT_KEYS:
                name, conv = _FAULT_KEYS[key]
                fault_kw[name] = conv(raw)
            elif key in _RECOVERY_KEYS:
                name, conv = _RECOVERY_KEYS[key]
                recovery_kw[name] = conv(raw)
            else:
                known = sorted(_FAULT_KEYS) + sorted(_RECOVERY_KEYS)
                raise ValueError(
                    f"unknown fault spec key {key!r}; known: {', '.join(known)}"
                )
        return cls(
            faults=FaultConfig(**fault_kw), recovery=RecoveryConfig(**recovery_kw)
        )
