"""Per-element MNA stamping and the serial NLDM grid loop.

Oracles for the SPICE engine:

* :class:`ScalarStamper` assembles the Jacobian and residual one
  element at a time, calling the compact model's ``ids``/``gm``/``gds``
  per FinFET.  It has the ``stamp`` signature of
  :class:`repro.spice.kernels.VectorStamper`, so :func:`scalar_simulator`
  can swap it into a :class:`~repro.spice.Simulator`.
* :class:`SerialCharacterizer` measures an arc's grid one transient at
  a time through :meth:`SpiceCharacterizer.measure_arc`, in the order
  and under the fault labels the trajectory batch uses.
"""

from __future__ import annotations

import numpy as np

from repro.charlib.spice_char import (
    ArcMeasurement,
    SpiceCharacterizer,
    _instance_label,
    arc_from_measurements,
)
from repro.resilience import faults
from repro.spice import Simulator
from repro.spice.engine import GMIN


class ScalarStamper:
    """Per-element assembly of one simulator's ``(jac, res)``."""

    def __init__(self, sim: Simulator):
        self.circuit = sim.circuit
        self.system = sim.system
        self.temperature_k = sim.temperature_k
        self.caps = sim._caps

    def stamp(
        self,
        x: np.ndarray,
        t: float,
        gmin: float = GMIN,
        geq: float = 0.0,
        cap_history: np.ndarray | None = None,
        src_values: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        size = self.system.size
        jac = np.zeros((size, size))
        res = np.zeros(size)
        self._stamp_static(x, t, jac, res, gmin, src_values)
        # DC: capacitors are open circuits; nothing to stamp.
        if geq > 0.0:
            self._stamp_caps_companion(x, jac, res, geq, cap_history)
        return jac, res

    def _stamp_static(self, x, t, jac, res, gmin, src_values) -> None:
        """Stamp gmin, resistors, sources and FinFETs at state ``x``."""
        sys = self.system
        nn = sys.n_nodes

        def v_of(i: int) -> float:
            return 0.0 if i < 0 else float(x[i])

        for i in range(nn):
            jac[i, i] += gmin
            res[i] += gmin * x[i]

        for r in self.circuit.resistors:
            a, b = sys.idx(r.node_a), sys.idx(r.node_b)
            g = 1.0 / r.resistance
            current = g * (v_of(a) - v_of(b))
            if a >= 0:
                jac[a, a] += g
                res[a] += current
                if b >= 0:
                    jac[a, b] -= g
            if b >= 0:
                jac[b, b] += g
                res[b] -= current
                if a >= 0:
                    jac[b, a] -= g

        for k, src in enumerate(self.circuit.vsources):
            p, m = sys.idx(src.node_plus), sys.idx(src.node_minus)
            row = nn + k
            i_src = float(x[row])
            # KCL: branch current leaves + terminal.
            if p >= 0:
                jac[p, row] += 1.0
                res[p] += i_src
            if m >= 0:
                jac[m, row] -= 1.0
                res[m] -= i_src
            # Branch equation: v(p) - v(m) = V(t).
            if p >= 0:
                jac[row, p] += 1.0
            if m >= 0:
                jac[row, m] -= 1.0
            v_t = float(src_values[k]) if src_values is not None else src.waveform(t)
            res[row] += v_of(p) - v_of(m) - v_t

        for m_dev in self.circuit.finfets:
            d = sys.idx(m_dev.drain)
            g = sys.idx(m_dev.gate)
            s = sys.idx(m_dev.source)
            vgs = v_of(g) - v_of(s)
            vds = v_of(d) - v_of(s)
            dev = m_dev.device
            ids = float(dev.ids(vgs, vds, self.temperature_k))
            gm = dev.gm(vgs, vds, self.temperature_k)
            gds = dev.gds(vgs, vds, self.temperature_k)
            # Current flows d -> s.
            if d >= 0:
                res[d] += ids
                if g >= 0:
                    jac[d, g] += gm
                jac[d, d] += gds
                if s >= 0:
                    jac[d, s] -= gm + gds
            if s >= 0:
                res[s] -= ids
                if g >= 0:
                    jac[s, g] -= gm
                if d >= 0:
                    jac[s, d] -= gds
                jac[s, s] += gm + gds

    def _stamp_caps_companion(self, x, jac, res, geq, history) -> None:
        """Stamp capacitor companion models.

        ``history[j]`` is the companion current source of capacitor j
        for this step; the capacitor current is
        ``i = geq * (v_a - v_b) + history[j]``.
        """

        def v_of(i: int) -> float:
            return 0.0 if i < 0 else float(x[i])

        for j, (a, b, c) in enumerate(self.caps):
            g = geq * c
            current = g * (v_of(a) - v_of(b)) + history[j]
            if a >= 0:
                jac[a, a] += g
                res[a] += current
                if b >= 0:
                    jac[a, b] -= g
            if b >= 0:
                jac[b, b] += g
                res[b] -= current
                if a >= 0:
                    jac[b, a] -= g


def scalar_simulator(circuit, temperature_k: float = 300.0, **kwargs) -> Simulator:
    """A :class:`Simulator` whose Newton loop stamps per element."""
    sim = Simulator(circuit, temperature_k, **kwargs)
    sim._stamper = ScalarStamper(sim)
    return sim


class SerialCharacterizer(SpiceCharacterizer):
    """Measures every grid point of an arc with its own transient.

    With ``scalar=True`` each transient also stamps per element, which
    makes the whole characterization independent of the vector kernels.
    """

    def __init__(self, tech, temperature_k: float, scalar: bool = False):
        super().__init__(tech, temperature_k)
        self.scalar = scalar

    def measure_arc(self, cell, pin, output, input_rising, slew, load) -> ArcMeasurement:
        if not self.scalar:
            return super().measure_arc(cell, pin, output, input_rising, slew, load)
        circuit, t_edge, t_stop, dt = self._arc_stimulus(
            cell, pin, output, input_rising, slew, load
        )
        with faults.instance_scope(
            _instance_label(cell, pin, output, input_rising, slew, load)
        ):
            result = scalar_simulator(circuit, self.temperature_k).transient(t_stop, dt)
            return self._extract(result, cell, pin, output, input_rising, t_edge)

    def _characterize_arc(self, cell, template_arc, slews, loads):
        pin, out = template_arc.related_pin, template_arc.output_pin
        measurements = []
        for slew in slews:
            for load in loads:
                for output_rising in (True, False):
                    measurements.append(
                        self._measure_for_output_dir(
                            cell, pin, out, output_rising, slew, load,
                            template_arc.timing_sense,
                        )
                    )
        return arc_from_measurements(template_arc, slews, loads, measurements)

    def _measure_for_output_dir(
        self, cell, pin, out, output_rising, slew, load, sense
    ) -> ArcMeasurement:
        """Measure with the input direction that produces the requested
        output direction (by the arc's unateness; non-unate arcs use
        the positive path)."""
        if sense == "negative_unate":
            input_rising = not output_rising
        else:
            input_rising = output_rising
        return self.measure_arc(cell, pin, out, input_rising, slew, load)
