"""Static timing analysis over mapped netlists.

The signoff-grade delay engine (the PrimeTime substrate): NLDM table
lookups with slew propagation over the gate-level netlist in
topological order, worst-arrival maximization, and critical-path
extraction.  All values SI (seconds, farads).

:class:`StaticTimingAnalyzer` drives the array-based levelized
:class:`~repro.sta.graph.TimingGraph`, vectorized over whole levels of
timing arcs and capable of incremental retiming.  A per-gate dict
propagation is the test oracle (``tests/oracles/sta_ref.py``);
``tests/test_sta_graph.py`` pins the graph to it bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..charlib.nldm import Library
from ..mapping.netlist import MappedNetlist
from .graph import TimingGraph

@dataclass(frozen=True)
class SignoffConfig:
    """Parasitic and boundary conditions for signoff analysis."""

    #: Slew assumed at primary inputs [s].
    input_slew: float = 1.0e-11
    #: Load assumed at primary outputs [F].
    output_load: float = 1.0e-15
    #: Fixed wire capacitance per net [F].
    wire_cap_base: float = 1.0e-16
    #: Additional wire capacitance per fanout [F].
    wire_cap_per_fanout: float = 2.0e-17


@dataclass
class TimingReport:
    """Result of one STA run."""

    arrival: dict[str, float]
    slew: dict[str, float]
    net_load: dict[str, float]
    critical_path: list[str] = field(default_factory=list)
    #: Critical (worst PO arrival) delay [s].
    max_delay: float = 0.0
    #: Arrival time per primary-output net [s].
    po_arrival: dict[str, float] = field(default_factory=dict)

    def to_dict(self) -> dict:
        """JSON-ready summary (the signoff surface, not per-net state)."""
        return {
            "max_delay_s": self.max_delay,
            "critical_path": list(self.critical_path),
            "po_arrival_s": dict(self.po_arrival),
        }


class StaticTimingAnalyzer:
    """NLDM-based STA for combinational mapped netlists.

    The netlist is compiled into a :class:`~repro.sta.graph.TimingGraph`
    on first use; repeated :meth:`analyze` calls against a netlist whose
    cells were swapped in place retime incrementally.
    """

    def __init__(
        self,
        netlist: MappedNetlist,
        library: Library,
        config: SignoffConfig | None = None,
    ):
        self.netlist = netlist
        self.library = library
        self.config = config or SignoffConfig()
        self._graph: TimingGraph | None = None

    @classmethod
    def from_context(cls, context, netlist: MappedNetlist) -> "StaticTimingAnalyzer":
        """Build an analyzer from a :class:`repro.core.context.DesignContext`
        (library + signoff boundary conditions come from the context)."""
        return cls(netlist, context.library, context.signoff)

    # ------------------------------------------------------------------
    @property
    def graph(self) -> TimingGraph:
        """The compiled :class:`~repro.sta.graph.TimingGraph`, in sync
        with :attr:`netlist` (recompiled after a structural change)."""
        if self._graph is not None and not self._graph.sync(self.netlist):
            self._graph = None
        if self._graph is None:
            self._graph = TimingGraph(self.netlist, self.library, self.config)
        return self._graph

    def net_loads(self) -> dict[str, float]:
        """Capacitive load per net [F]: sink pins + wire + PO loads."""
        return self.graph.net_loads_dict()

    def analyze(self) -> TimingReport:
        """Propagate arrivals/slews; returns the timing report.

        Repeated calls against an (externally cell-edited) netlist
        retime incrementally instead of paying a full propagation; the
        result is identical either way.
        """
        return self.graph.retime()


def critical_delay(
    netlist: MappedNetlist, library: Library, config: SignoffConfig | None = None
) -> float:
    """Convenience: worst PO arrival [s]."""
    return StaticTimingAnalyzer(netlist, library, config).analyze().max_delay
