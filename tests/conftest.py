"""Shared fixtures: small scaled stores and zero-cost environments."""

from __future__ import annotations

import pytest

from repro.sim.clock import SimClock
from repro.sim.costs import DEFAULT_COSTS, ZERO_COSTS
from repro.sim.disk import SimDisk
from repro.sim.scale import ScaleConfig
from repro.sgx.enclave import Enclave
from repro.sgx.env import ExecutionEnv
from repro.telemetry import Telemetry

#: A small scale so tests exercise multiple levels cheaply.
TEST_SCALE = ScaleConfig(factor=1.0 / 4096.0)


def clock_telemetry(clock: SimClock) -> Telemetry:
    """Telemetry whose spans and events are stamped on ``clock``."""
    return Telemetry(clock=lambda: clock.now_us)


@pytest.fixture
def clock() -> SimClock:
    return SimClock()


@pytest.fixture
def disk(clock: SimClock) -> SimDisk:
    return SimDisk(clock, DEFAULT_COSTS)


@pytest.fixture
def env(clock: SimClock, disk: SimDisk) -> ExecutionEnv:
    """Untrusted (no-enclave) environment."""
    return ExecutionEnv(clock, DEFAULT_COSTS, disk, clock_telemetry(clock))


@pytest.fixture
def enclave_env(clock: SimClock, disk: SimDisk) -> ExecutionEnv:
    """Environment with a 64 KB-EPC enclave."""
    enclave = Enclave(clock, DEFAULT_COSTS, epc_bytes=64 * 1024)
    return ExecutionEnv(clock, DEFAULT_COSTS, disk, clock_telemetry(clock), enclave=enclave)


@pytest.fixture
def free_env() -> ExecutionEnv:
    """Zero-cost environment for functional tests that ignore timing."""
    clock = SimClock()
    disk = SimDisk(clock, ZERO_COSTS)
    return ExecutionEnv(clock, ZERO_COSTS, disk, clock_telemetry(clock))


@pytest.fixture
def hashed_bytes(monkeypatch) -> list[int]:
    """Bytes given to each real digest-building hash call, as it happens.

    Counts the arguments of every chain-node, Merkle-leaf and
    internal-node hash the level digesters make (tags and length
    prefixes excluded), so tests can compare charged hash bytes with
    the bytes really hashed.
    """
    import repro.mht.chain as chain_mod
    import repro.mht.incremental as incremental_mod
    import repro.mht.merkle as merkle_mod

    hashed: list[int] = []
    for module, name in (
        (chain_mod, "hash_chain_node"),
        (incremental_mod, "hash_chain_node"),
        (incremental_mod, "hash_leaf"),
        (merkle_mod, "hash_internal"),
    ):
        real = getattr(module, name)

        def counting(*parts, _real=real):
            hashed.append(sum(len(part or b"") for part in parts))
            return _real(*parts)

        monkeypatch.setattr(module, name, counting)
    return hashed


def make_p2_store(**overrides):
    """A tiny eLSM-P2 store that compacts quickly in tests."""
    from repro.core.store_p2 import ELSMP2Store

    defaults = dict(
        scale=TEST_SCALE,
        write_buffer_bytes=2 * 1024,
        level1_max_bytes=4 * 1024,
        file_max_bytes=4 * 1024,
        block_bytes=1024,
    )
    defaults.update(overrides)
    return ELSMP2Store(**defaults)


def make_p1_store(**overrides):
    from repro.core.store_p1 import ELSMP1Store

    defaults = dict(
        scale=TEST_SCALE,
        write_buffer_bytes=2 * 1024,
        level1_max_bytes=4 * 1024,
        file_max_bytes=4 * 1024,
        block_bytes=1024,
    )
    defaults.update(overrides)
    return ELSMP1Store(**defaults)


def kv(i: int, version: int = 0) -> tuple[bytes, bytes]:
    """Deterministic (key, value) pair for test datasets."""
    return (b"key%06d" % i, b"value-%d-%d" % (i, version))
