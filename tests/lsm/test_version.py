"""Level runs: lookup with neighbours, ranges, iteration."""

import pytest

from repro.lsm.cache import ReadBuffer
from repro.lsm.records import Record
from repro.lsm.sstable import BlockFetcher, SSTableBuilder
from repro.lsm.version import LevelRun


def build_run(env, groups, files=1, block_bytes=128):
    """groups: list of (key, [ts...]) — ts descending per key."""
    per_file = max(1, (len(groups) + files - 1) // files)
    metas = []
    for file_no, start in enumerate(range(0, len(groups), per_file)):
        builder = SSTableBuilder(
            env, f"run/f{file_no}", level=1, file_no=file_no, block_bytes=block_bytes
        )
        for key, ts_list in groups[start : start + per_file]:
            for ts in ts_list:
                builder.add(Record(key=key, ts=ts, value=b"v%d" % ts))
        metas.append(builder.finish())
    return LevelRun(1, metas)


def make_fetcher(env):
    return BlockFetcher(env, buffer=ReadBuffer(env, 64 * 1024, block_stride=128))


GROUPS = [
    (b"aaa", [9]),
    (b"ccc", [7, 4, 2]),
    (b"eee", [5]),
    (b"ggg", [8, 3]),
    (b"iii", [6]),
]


@pytest.mark.parametrize("files", [1, 2, 5])
def test_lookup_hit_returns_whole_group(free_env, files):
    run = build_run(free_env, GROUPS, files=files)
    fetcher = make_fetcher(free_env)
    result = run.lookup(fetcher, b"ccc")
    assert [r.ts for r, _ in result.group] == [7, 4, 2]
    assert result.left[0].key == b"aaa"
    assert result.right[0].key == b"eee"


@pytest.mark.parametrize("files", [1, 2, 5])
def test_lookup_miss_returns_adjacent_newest(free_env, files):
    run = build_run(free_env, GROUPS, files=files)
    fetcher = make_fetcher(free_env)
    result = run.lookup(fetcher, b"dzz")
    assert result.group == []
    assert result.left[0].key == b"ccc"
    assert result.left[0].ts == 7  # newest of the predecessor chain
    assert result.right[0].key == b"eee"


def test_lookup_before_first(free_env):
    run = build_run(free_env, GROUPS)
    result = run.lookup(make_fetcher(free_env), b"a")
    assert result.group == []
    assert result.left is None
    assert result.right[0].key == b"aaa"


def test_lookup_after_last(free_env):
    run = build_run(free_env, GROUPS, files=2)
    result = run.lookup(make_fetcher(free_env), b"zzz")
    assert result.group == []
    assert result.right is None
    assert result.left[0].key == b"iii"
    assert result.left[0].ts == 6


def test_neighbour_newest_across_file_boundary(free_env):
    """Predecessor group's newest entry may live in the previous file."""
    run = build_run(free_env, GROUPS, files=5)  # one group per file
    result = run.lookup(make_fetcher(free_env), b"ddd")
    assert result.left[0].key == b"ccc" and result.left[0].ts == 7


def test_get_group(free_env):
    run = build_run(free_env, GROUPS)
    fetcher = make_fetcher(free_env)
    group = run.get_group(fetcher, b"ggg")
    assert [r.ts for r, _ in group] == [8, 3]
    assert run.get_group(fetcher, b"nope") == []


def test_range_entries_inclusive(free_env):
    run = build_run(free_env, GROUPS, files=2)
    left, entries, right = run.range_entries(
        make_fetcher(free_env), b"ccc", b"ggg"
    )
    assert [r.key for r, _ in entries] == [
        b"ccc", b"ccc", b"ccc", b"eee", b"ggg", b"ggg",
    ]
    assert left[0].key == b"aaa"
    assert right[0].key == b"iii"


def test_range_entries_empty_window(free_env):
    run = build_run(free_env, GROUPS)
    left, entries, right = run.range_entries(
        make_fetcher(free_env), b"cd", b"cz"
    )
    assert entries == []
    assert left[0].key == b"ccc"
    assert right[0].key == b"eee"


def test_range_whole_run(free_env):
    run = build_run(free_env, GROUPS)
    left, entries, right = run.range_entries(
        make_fetcher(free_env), b"a", b"z"
    )
    assert left is None and right is None
    assert len(entries) == 8


def test_bad_range_rejected(free_env):
    run = build_run(free_env, GROUPS)
    with pytest.raises(ValueError):
        run.range_entries(make_fetcher(free_env), b"z", b"a")


def test_iter_entries_order(free_env):
    run = build_run(free_env, GROUPS, files=3)
    keys = [(r.key, r.ts) for r, _ in run.iter_entries(free_env)]
    assert keys == sorted(keys, key=lambda pair: (pair[0], -pair[1]))
    assert len(keys) == 8


def test_overlapping_tables_rejected(free_env):
    builder_a = SSTableBuilder(free_env, "o/a", level=1, file_no=1)
    builder_a.add(Record(key=b"a", ts=1))
    builder_a.add(Record(key=b"m", ts=2))
    meta_a = builder_a.finish()
    builder_b = SSTableBuilder(free_env, "o/b", level=1, file_no=2)
    builder_b.add(Record(key=b"k", ts=3))
    meta_b = builder_b.finish()
    with pytest.raises(ValueError):
        LevelRun(1, [meta_a, meta_b])


def test_may_contain_uses_range_and_bloom(free_env):
    run = build_run(free_env, GROUPS)
    assert run.may_contain(b"ccc")
    assert not run.may_contain(b"zzzz")  # beyond max key
    assert not run.may_contain(b"0")  # before min key


def test_empty_run(free_env):
    run = LevelRun(1, [])
    assert run.is_empty
    assert run.total_bytes == 0
    assert run.min_key is None


class CountingFetcher:
    def __init__(self, fetcher):
        self.fetcher = fetcher
        self.reads = 0

    def read_block(self, meta, handle):
        self.reads += 1
        return self.fetcher.read_block(meta, handle)


@pytest.mark.parametrize("files", [1, 2])
def test_cursor_fetches_each_block_once_per_walk(free_env, files):
    """The cursor pins its current block: stepping inside it fetches nothing."""
    run = build_run(free_env, GROUPS, files=files, block_bytes=4096)
    blocks = sum(len(meta.handles) for meta in run.tables)
    fetcher = CountingFetcher(make_fetcher(free_env))
    _, entries, _ = run.range_entries(fetcher, b"a", b"z")
    assert len(entries) == 8
    assert fetcher.reads == blocks
