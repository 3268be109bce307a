"""ECall/OCall world-switch accounting."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sgx.boundary import WorldBoundary
from repro.telemetry import Telemetry


@pytest.fixture
def setup():
    clock = SimClock()
    return clock, WorldBoundary(clock, CostModel(), Telemetry())


def switches(boundary, kind):
    return boundary.telemetry.counter(f"enclave.{kind}").total()


def test_ecall_counts_and_charges(setup):
    clock, boundary = setup
    with boundary.ecall("put"):
        pass
    assert boundary.telemetry.counter("enclave.ecalls").value(call="put") == 1
    assert clock.breakdown()["ecall"] == CostModel().ecall_us


def test_ocall_counts_and_charges(setup):
    clock, boundary = setup
    with boundary.ocall("fread"):
        pass
    assert boundary.telemetry.counter("enclave.ocalls").value(call="fread") == 1
    assert clock.breakdown()["ocall"] == CostModel().ocall_us


def test_marshalling_copies_charged(setup):
    clock, boundary = setup
    with boundary.ecall("put", in_bytes=4096, out_bytes=4096):
        pass
    assert clock.breakdown()["ecall_copy"] == pytest.approx(
        2 * CostModel().enclave_copy_cost(4096)
    )


def test_nested_calls(setup):
    clock, boundary = setup
    with boundary.ecall("op"):
        with boundary.ocall("syscall"):
            pass
        with boundary.ocall("syscall"):
            pass
    assert switches(boundary, "ecalls") == 1
    assert switches(boundary, "ocalls") == 2


def test_out_copy_charged_even_on_exception(setup):
    clock, boundary = setup
    with pytest.raises(RuntimeError):
        with boundary.ecall("op", out_bytes=1024):
            raise RuntimeError("boom")
    assert clock.breakdown().get("ecall_copy", 0.0) > 0
