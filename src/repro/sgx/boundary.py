"""ECall/OCall world-switch accounting.

Crossing the enclave boundary costs thousands of cycles (context save,
TLB flush, SDK marshalling).  The paper's YCSB port wraps every PUT/GET
in an ECall and every file operation in an OCall; its Appendix D argues
placement choices precisely by counting these switches.  ``WorldBoundary``
charges each switch plus per-byte marshalling copies and counts them in
its telemetry: ``enclave.ecalls{call}`` / ``enclave.ocalls{call}`` in the
registry, ``boundary.ecalls`` / ``boundary.ocalls`` in the active span's
ledger.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.telemetry import Telemetry


class WorldBoundary:
    """Charges and counts ECall/OCall transitions."""

    def __init__(self, clock: SimClock, costs: CostModel, telemetry: Telemetry) -> None:
        self.clock = clock
        self.costs = costs
        self.telemetry = telemetry
        self._m_ecalls = telemetry.counter(
            "enclave.ecalls", "enclave entries (world switches)", labels=("call",)
        )
        self._m_ocalls = telemetry.counter(
            "enclave.ocalls", "enclave exits (world switches)", labels=("call",)
        )
        self._m_copy = telemetry.counter(
            "enclave.copy.bytes",
            "bytes marshalled across the enclave boundary",
            labels=("dir",),
        )

    def _count_copy(self, nbytes: int, direction: str) -> None:
        if nbytes:
            self._m_copy.inc(nbytes, dir=direction)

    @contextmanager
    def ecall(self, name: str = "", in_bytes: int = 0, out_bytes: int = 0) -> Iterator[None]:
        """Enter the enclave to run a trusted function."""
        self._m_ecalls.inc(call=name or "anonymous")
        self.telemetry.charge_resource("boundary.ecalls", 1)
        self._count_copy(in_bytes, "in")
        self.clock.charge("ecall", self.costs.ecall_us)
        if in_bytes:
            self.clock.charge("ecall_copy", self.costs.enclave_copy_cost(in_bytes))
        try:
            yield
        finally:
            self._count_copy(out_bytes, "out")
            if out_bytes:
                self.clock.charge("ecall_copy", self.costs.enclave_copy_cost(out_bytes))

    @contextmanager
    def ocall(self, name: str = "", in_bytes: int = 0, out_bytes: int = 0) -> Iterator[None]:
        """Exit the enclave to run an untrusted function (e.g. a syscall)."""
        self._m_ocalls.inc(call=name or "anonymous")
        self.telemetry.charge_resource("boundary.ocalls", 1)
        self._count_copy(in_bytes, "out")
        self.clock.charge("ocall", self.costs.ocall_us)
        if in_bytes:
            self.clock.charge("ocall_copy", self.costs.enclave_copy_cost(in_bytes))
        try:
            yield
        finally:
            self._count_copy(out_bytes, "in")
            if out_bytes:
                self.clock.charge("ocall_copy", self.costs.enclave_copy_cost(out_bytes))
