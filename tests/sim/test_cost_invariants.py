"""Micro-level cost invariants that the paper's figures depend on.

Each test pins one comparative relationship the figure shapes rely on,
so a cost-model change that would silently flip a figure fails here
first.
"""

from repro.lsm.cache import LOCATION_ENCLAVE, Block, ReadBuffer
from repro.sim.clock import SimClock
from repro.sim.costs import DEFAULT_COSTS, PAGE_SIZE
from repro.sim.disk import SimDisk
from repro.sgx.enclave import Enclave
from repro.sgx.env import ExecutionEnv
from repro.telemetry import Telemetry

EPC = 16 * PAGE_SIZE  # 16-page enclave for these micro tests


def make_env():
    clock = SimClock()
    disk = SimDisk(clock, DEFAULT_COSTS)
    enclave = Enclave(clock, DEFAULT_COSTS, EPC)
    return ExecutionEnv(clock, DEFAULT_COSTS, disk, Telemetry(), enclave=enclave)


def buffer_read_cost(location: str, buffer_pages: int, touches: int) -> float:
    """Cost of cycling reads over ``buffer_pages`` cached blocks."""
    env = make_env()
    buffer = ReadBuffer(
        env,
        buffer_pages * PAGE_SIZE,
        location=location,
        block_stride=PAGE_SIZE,
        region="micro",
    )
    for i in range(buffer_pages):
        buffer.put(("f", i), Block(entries=[], nbytes=PAGE_SIZE - 64))
    start = env.clock.now_us
    for i in range(touches):
        buffer.get(("f", i % buffer_pages))
    return env.clock.now_us - start


def test_fig2_invariant_small_buffer_fill_cost():
    """Filling an in-enclave buffer costs more than an untrusted one."""
    env = make_env()
    untrusted = ReadBuffer(env, 8 * PAGE_SIZE, block_stride=PAGE_SIZE)
    start = env.clock.now_us
    untrusted.put(("f", 0), Block(entries=[], nbytes=PAGE_SIZE))
    untrusted_cost = env.clock.now_us - start

    env2 = make_env()
    enclave_buf = ReadBuffer(
        env2, 8 * PAGE_SIZE, location=LOCATION_ENCLAVE,
        block_stride=PAGE_SIZE, region="rb",
    )
    start = env2.clock.now_us
    enclave_buf.put(("f", 0), Block(entries=[], nbytes=PAGE_SIZE))
    enclave_cost = env2.clock.now_us - start
    assert enclave_cost > untrusted_cost


def test_fig6_invariant_paging_cliff():
    """In-enclave buffer hits get dramatically slower past the EPC."""
    within = buffer_read_cost(LOCATION_ENCLAVE, buffer_pages=8, touches=64)
    beyond = buffer_read_cost(LOCATION_ENCLAVE, buffer_pages=64, touches=64)
    assert beyond > 5 * within


def test_fig6_invariant_untrusted_buffer_is_flat():
    """Untrusted buffer hits cost the same at any buffer size."""
    small = buffer_read_cost("untrusted", buffer_pages=8, touches=64)
    large = buffer_read_cost("untrusted", buffer_pages=64, touches=64)
    assert abs(large - small) < 0.25 * small + 1e-6


def test_world_switch_exceeds_memory_touch():
    costs = DEFAULT_COSTS
    assert costs.ocall_us > 10 * costs.dram_touch_us
    assert costs.ecall_us > 10 * costs.enclave_touch_us


def test_paging_exceeds_world_switch():
    assert DEFAULT_COSTS.epc_page_fault_us > 3 * DEFAULT_COSTS.ocall_us


def test_mmap_cheaper_than_syscall_read():
    """Figure 6b's mechanism: resident mmap reads skip the kernel."""
    clock = SimClock()
    disk = SimDisk(clock, DEFAULT_COSTS)
    disk.create("f")
    disk.append("f", b"x" * PAGE_SIZE)
    start = clock.now_us
    disk.read_mmap("f", 0, 256)
    mmap_cost = clock.now_us - start
    start = clock.now_us
    disk.read("f", 0, 256)
    syscall_cost = clock.now_us - start
    assert mmap_cost < syscall_cost


def test_sequential_cheaper_than_random_io():
    """The LSM premise: sequential device writes beat random ones."""
    clock = SimClock()
    disk = SimDisk(clock, DEFAULT_COSTS, cache_bytes=PAGE_SIZE)
    disk.create("f")
    disk.append("f", b"x" * (64 * PAGE_SIZE))
    start = clock.now_us
    for i in range(16):
        disk.read("f", i * PAGE_SIZE, PAGE_SIZE)  # sequential
    sequential = clock.now_us - start
    start = clock.now_us
    for i in range(16):
        disk.read("f", ((i * 37) % 64) * PAGE_SIZE, PAGE_SIZE)  # random
    random_cost = clock.now_us - start
    assert random_cost > 2 * sequential


def test_hash_cost_scales_sublinearly_with_count():
    """Chains amortize: one big hash beats many tiny ones per byte."""
    costs = DEFAULT_COSTS
    one_big = costs.hash_cost(64 * 1024)
    many_small = 64 * costs.hash_cost(1024)
    assert one_big < many_small
