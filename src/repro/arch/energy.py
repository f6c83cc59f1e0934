"""Energy model: per-event costs and breakdown accounting.

The paper estimates power from a synthesised 14 nm FinFET implementation
(Design Compiler / PrimeTime) and models the SRAM buffer with PCACTI.  None of
those tools are available here, so the Python model assigns an energy cost to
every *counted event* (MAC, register access, SRAM word, DRAM word) using
constants derived from published measurements — Horowitz's ISSCC 2014 "energy
table" (45 nm) scaled to a 14 nm-class process (~0.25x for logic, ~0.4x for
SRAM; DRAM interface energy dominated by I/O and left unscaled).

Absolute joules are therefore only indicative.  What the reproduction relies
on is (a) the *relative ordering* DRAM >> SRAM >> MAC ~ register, which holds
for any published table, and (b) using the *same* constants for SparseTrain
and for the dense baseline, so efficiency ratios (the Fig. 9 result) depend
only on the counted events.  Every constant can be overridden to test the
sensitivity of the conclusions (see the energy-model ablation benchmark).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


@dataclass(frozen=True)
class EnergyModel:
    """Per-event energy costs in picojoules (16-bit datapath).

    Attributes
    ----------
    mac_pj:
        One 16-bit multiply-accumulate (combinational logic).
    reg_pj:
        One register-file access (read or write) of a 16-bit word.
    sram_pj:
        One 16-bit word read from or written to the global SRAM buffer.
    dram_pj:
        One 16-bit word transferred to/from off-chip DRAM.
    leakage_pj_per_cycle:
        Static energy of the whole accelerator per cycle (covers clock tree
        and idle logic); charged per elapsed cycle, not per event.
    """

    mac_pj: float = 0.3
    reg_pj: float = 0.15
    sram_pj: float = 2.5
    dram_pj: float = 100.0
    leakage_pj_per_cycle: float = 15.0

    def __post_init__(self) -> None:
        for name in ("mac_pj", "reg_pj", "sram_pj", "dram_pj", "leakage_pj_per_cycle"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    def scaled(self, factor: float) -> "EnergyModel":
        """Uniformly scale all constants (process-node what-if studies)."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return EnergyModel(
            mac_pj=self.mac_pj * factor,
            reg_pj=self.reg_pj * factor,
            sram_pj=self.sram_pj * factor,
            dram_pj=self.dram_pj * factor,
            leakage_pj_per_cycle=self.leakage_pj_per_cycle * factor,
        )

    def with_overrides(self, **overrides: float) -> "EnergyModel":
        """Copy with selected constants replaced."""
        return replace(self, **overrides)


@dataclass
class EnergyBreakdown:
    """Accumulated energy per component, in picojoules.

    The component names mirror the paper's Fig. 9 legend: combinational logic
    (the MAC array), registers, SRAM (global buffer), DRAM, plus leakage.
    """

    combinational_pj: float = 0.0
    register_pj: float = 0.0
    sram_pj: float = 0.0
    dram_pj: float = 0.0
    leakage_pj: float = 0.0

    @property
    def total_pj(self) -> float:
        return (
            self.combinational_pj
            + self.register_pj
            + self.sram_pj
            + self.dram_pj
            + self.leakage_pj
        )

    @property
    def total_uj(self) -> float:
        """Total energy in microjoules."""
        return self.total_pj * 1e-6

    def fraction(self, component: str) -> float:
        """Fraction of total energy spent in ``component``.

        ``component`` is one of ``"combinational"``, ``"register"``,
        ``"sram"``, ``"dram"``, ``"leakage"``.
        """
        total = self.total_pj
        if total == 0.0:
            return 0.0
        value = getattr(self, f"{component}_pj")
        return value / total

    def add(self, other: "EnergyBreakdown") -> None:
        """Accumulate another breakdown into this one.

        Each component is rebound to a new sum rather than updated with
        ``+=``, so numpy columns of different shapes (the analytic tier's)
        broadcast as they accumulate.
        """
        self.combinational_pj = self.combinational_pj + other.combinational_pj
        self.register_pj = self.register_pj + other.register_pj
        self.sram_pj = self.sram_pj + other.sram_pj
        self.dram_pj = self.dram_pj + other.dram_pj
        self.leakage_pj = self.leakage_pj + other.leakage_pj

    def scaled(self, factor: float) -> "EnergyBreakdown":
        """Return a copy with every component multiplied by ``factor``."""
        return EnergyBreakdown(
            combinational_pj=self.combinational_pj * factor,
            register_pj=self.register_pj * factor,
            sram_pj=self.sram_pj * factor,
            dram_pj=self.dram_pj * factor,
            leakage_pj=self.leakage_pj * factor,
        )

    def as_dict(self) -> dict[str, float]:
        """Component -> picojoules mapping (stable key order)."""
        return {
            "combinational": self.combinational_pj,
            "register": self.register_pj,
            "sram": self.sram_pj,
            "dram": self.dram_pj,
            "leakage": self.leakage_pj,
        }


@dataclass(frozen=True)
class EventCounts:
    """Counted events of a simulation region, the input to energy accounting."""

    macs: float = 0.0
    reg_accesses: float = 0.0
    sram_words: float = 0.0
    dram_words: float = 0.0
    cycles: float = 0.0

    def __add__(self, other: "EventCounts") -> "EventCounts":
        return EventCounts(
            macs=self.macs + other.macs,
            reg_accesses=self.reg_accesses + other.reg_accesses,
            sram_words=self.sram_words + other.sram_words,
            dram_words=self.dram_words + other.dram_words,
            cycles=self.cycles + other.cycles,
        )


def energy_from_events(events: EventCounts, model: EnergyModel) -> EnergyBreakdown:
    """Convert counted events into an energy breakdown."""
    return EnergyBreakdown(
        combinational_pj=events.macs * model.mac_pj,
        register_pj=events.reg_accesses * model.reg_pj,
        sram_pj=events.sram_words * model.sram_pj,
        dram_pj=events.dram_words * model.dram_pj,
        leakage_pj=events.cycles * model.leakage_pj_per_cycle,
    )


def default_energy_model() -> EnergyModel:
    """The 14 nm-class constants described in the module docstring."""
    return EnergyModel()
