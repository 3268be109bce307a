"""ExecutionEnv: placement-aware file IO and metadata accounting."""

import pytest

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.disk import SimDisk
from repro.sgx.enclave import Enclave
from repro.sgx.env import ExecutionEnv
from repro.telemetry import Telemetry


def make_env(with_enclave: bool):
    clock = SimClock()
    disk = SimDisk(clock, CostModel())
    enclave = Enclave(clock, CostModel(), 64 * 1024) if with_enclave else None
    return ExecutionEnv(clock, CostModel(), disk, Telemetry(), enclave=enclave)


def switches(env, kind):
    return env.telemetry.counter(f"enclave.{kind}").total()


def test_in_enclave_flag():
    assert make_env(True).in_enclave
    assert not make_env(False).in_enclave


def test_file_read_pays_ocall_inside_enclave():
    env = make_env(True)
    env.file_write("f", b"data")
    before = switches(env, "ocalls")
    env.file_read("f", 0, 4)
    assert switches(env, "ocalls") == before + 1


def test_mmap_read_skips_ocall():
    env = make_env(True)
    env.file_write("f", b"data")
    before = switches(env, "ocalls")
    env.file_read("f", 0, 4, mmap=True)
    assert switches(env, "ocalls") == before


def test_no_boundary_without_enclave():
    env = make_env(False)
    assert env.boundary is None
    env.file_write("f", b"data")
    assert env.file_read("f", 0, 4) == b"data"
    assert env.clock.event_count("ocall") == 0


def test_op_call_is_ecall_inside_enclave():
    env = make_env(True)
    with env.op_call("get"):
        pass
    assert switches(env, "ecalls") == 1


def test_op_call_noop_outside():
    env = make_env(False)
    with env.op_call("get"):
        pass
    assert env.clock.event_count("ecall") == 0


def test_meta_accounting_inside_enclave():
    env = make_env(True)
    env.meta_region("idx")
    env.meta_grow("idx", 500)
    assert env.enclave.region_bytes("idx") == 500
    env.meta_reset("idx")
    assert env.enclave.region_bytes("idx") == 0


def test_meta_accounting_noop_outside():
    env = make_env(False)
    env.meta_region("idx")
    env.meta_grow("idx", 500)  # must not raise
    env.meta_touch("idx", 0, 10)


def test_meta_region_idempotent():
    env = make_env(True)
    env.meta_region("idx")
    env.meta_region("idx")  # no EnclaveMemoryError
    env.meta_grow("idx", 1)


def test_file_lifecycle():
    env = make_env(True)
    env.file_create("f")
    assert env.file_exists("f")
    env.file_append("f", b"abc")
    env.file_fsync("f")
    env.file_delete("f")
    assert not env.file_exists("f")


def test_trusted_hash_charges():
    env = make_env(False)
    before = env.clock.now_us
    env.trusted_hash(1024)
    env.trusted_cipher(1024)
    assert env.clock.now_us > before
