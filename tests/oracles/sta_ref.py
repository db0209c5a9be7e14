"""Per-gate static timing analysis.

Oracle for :class:`repro.sta.StaticTimingAnalyzer` and the
:class:`~repro.sta.graph.TimingGraph` behind it: arrivals and slews are
propagated gate by gate through python dicts, in netlist order, with a
full re-analysis per query.  The analyzer has the constructor,
:meth:`analyze` and :meth:`net_loads` of the product class, so it can
stand in for it wherever a flow builds one.
"""

from __future__ import annotations

from repro import obs
from repro.sta.timing import SignoffConfig, TimingReport


class LegacyTimingAnalyzer:
    """NLDM-based STA for combinational mapped netlists, one gate at a time."""

    def __init__(self, netlist, library, config: SignoffConfig | None = None):
        self.netlist = netlist
        self.library = library
        self.config = config or SignoffConfig()
        # Both caches store gate *indices*, not gate objects: sizing
        # swaps cells by replacing entries of ``netlist.gates`` in place,
        # and an index stays valid where a cached instance would go stale.
        self._sink_map: dict[str, list[tuple[int, str]]] | None = None
        self._gate_index: dict[str, int] | None = None

    def _sinks(self) -> dict[str, list[tuple[int, str]]]:
        """``net -> [(gate index, pin)]`` in ``netlist.loads()`` order."""
        if self._sink_map is None:
            sink_map: dict[str, list[tuple[int, str]]] = {}
            for index, gate in enumerate(self.netlist.gates):
                for pin, net in gate.pins.items():
                    sink_map.setdefault(net, []).append((index, pin))
            self._sink_map = sink_map
        return self._sink_map

    def net_loads(self) -> dict[str, float]:
        """Capacitive load per net [F]: sink pins + wire + PO loads."""
        config = self.config
        loads: dict[str, float] = {}
        sink_map = self._sinks()
        all_nets = set(self.netlist.pi_nets)
        for gate in self.netlist.gates:
            all_nets.add(gate.output_net)
            all_nets.update(gate.pins.values())
        po_nets = set(self.netlist.po_nets)
        # Sorted iteration keeps downstream float summations (e.g. the
        # switching-power accumulation over .items()) byte-identical
        # across processes; set order varies with string hashing.
        gates = self.netlist.gates
        for net in sorted(all_nets):
            sinks = sink_map.get(net, [])
            total = config.wire_cap_base + config.wire_cap_per_fanout * len(sinks)
            for index, pin in sinks:
                total += self.library[gates[index].cell].input_caps.get(pin, 0.0)
            if net in po_nets:
                total += config.output_load
            loads[net] = total
        return loads

    def analyze(self) -> TimingReport:
        config = self.config
        loads = self.net_loads()
        arrival: dict[str, float] = {}
        slew: dict[str, float] = {}
        from_pin: dict[str, tuple[str, str] | None] = {}
        arc_lookups = 0

        for net in self.netlist.pi_nets:
            arrival[net] = 0.0
            slew[net] = config.input_slew
            from_pin[net] = None

        for gate in self.netlist.gates:
            cell = self.library[gate.cell]
            load = loads[gate.output_net]
            best_arrival = 0.0
            best_slew = config.input_slew
            best_source: tuple[str, str] | None = None
            for pin, net in gate.pins.items():
                in_arrival = arrival[net]
                in_slew = slew[net]
                try:
                    arc = cell.arc(pin, gate.output_pin)
                except KeyError:
                    continue  # non-controlling pin (no arc)
                arc_lookups += 1
                delay = max(
                    arc.cell_rise.lookup(in_slew, load),
                    arc.cell_fall.lookup(in_slew, load),
                )
                out_slew = max(
                    arc.rise_transition.lookup(in_slew, load),
                    arc.fall_transition.lookup(in_slew, load),
                )
                candidate = in_arrival + delay
                if candidate > best_arrival:
                    best_arrival = candidate
                    best_slew = out_slew
                    best_source = (gate.name, pin)
            arrival[gate.output_net] = best_arrival
            slew[gate.output_net] = best_slew
            from_pin[gate.output_net] = best_source

        if obs.current_tracer() is not None:
            obs.count("sta.timing_queries")
            obs.count("sta.full_retimes")
            obs.count("sta.arc_lookups", arc_lookups)
            obs.count("sta.gates_analyzed", len(self.netlist.gates))
        report = TimingReport(arrival=arrival, slew=slew, net_load=loads)
        if self.netlist.po_nets:
            worst_net = max(self.netlist.po_nets, key=lambda n: arrival.get(n, 0.0))
            report.max_delay = arrival.get(worst_net, 0.0)
            report.critical_path = self._trace_path(worst_net, from_pin)
        report.po_arrival = {
            net: arrival.get(net, 0.0) for net in self.netlist.po_nets
        }
        return report

    def _trace_path(
        self, net: str, from_pin: dict[str, tuple[str, str] | None]
    ) -> list[str]:
        """Walk the worst-arrival chain back to a PI."""
        gates = self.netlist.gates
        if self._gate_index is None:
            self._gate_index = {gate.name: i for i, gate in enumerate(gates)}
        gate_index = self._gate_index
        path: list[str] = []
        current = net
        guard = 0
        while current in from_pin and from_pin[current] is not None:
            guard += 1
            if guard > len(gates) + 1:
                break  # defensive: malformed netlist
            gate_name, pin = from_pin[current]
            path.append(gate_name)
            current = gates[gate_index[gate_name]].pins[pin]
        path.reverse()
        return path
