"""Streaming level digester (the paper's MHT_add)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cryptoprim.hashing import hash_chain_node, hash_leaf
from repro.mht.chain import chain_digest, suffix_digests
from repro.mht.incremental import OrderingError, StreamingLevelDigester
from repro.mht.merkle import MerkleTree


def build(records):
    """records: list of (key, ts, encoded)."""
    digester = StreamingLevelDigester()
    for key, ts, encoded in records:
        digester.add(key, ts, encoded)
    return digester.finalize()


def test_groups_by_key_newest_first():
    tree = build(
        [
            (b"a", 9, b"a9"),
            (b"t", 4, b"t4"),
            (b"t", 1, b"t1"),
            (b"z", 7, b"z7"),
        ]
    )
    assert tree.leaf_count == 3
    assert [g.key for g in tree.groups] == [b"a", b"t", b"z"]
    assert tree.groups[1].entries == [(4, b"t4"), (1, b"t1")]
    assert tree.record_count == 4


def test_matches_manual_merkle_construction():
    tree = build([(b"a", 2, b"A"), (b"b", 3, b"B"), (b"b", 1, b"Bold")])
    manual = MerkleTree(
        [
            hash_leaf(chain_digest([b"A"])),
            hash_leaf(chain_digest([b"B", b"Bold"])),
        ]
    )
    assert tree.root == manual.root


def test_rejects_descending_keys():
    digester = StreamingLevelDigester()
    digester.add(b"b", 1, b"x")
    with pytest.raises(OrderingError):
        digester.add(b"a", 2, b"y")


def test_rejects_non_descending_timestamps():
    digester = StreamingLevelDigester()
    digester.add(b"a", 5, b"x")
    with pytest.raises(OrderingError):
        digester.add(b"a", 5, b"y")
    with pytest.raises(OrderingError):
        digester.add(b"a", 7, b"z")


def test_add_after_finalize_rejected():
    digester = StreamingLevelDigester()
    digester.add(b"a", 1, b"x")
    digester.finalize()
    with pytest.raises(RuntimeError):
        digester.add(b"b", 2, b"y")


def test_finalize_idempotent():
    digester = StreamingLevelDigester()
    digester.add(b"a", 1, b"x")
    assert digester.finalize() is digester.finalize()


def test_empty_stream():
    tree = StreamingLevelDigester().finalize()
    assert tree.leaf_count == 0
    assert tree.record_count == 0


def test_find():
    tree = build([(b"a", 1, b"x"), (b"c", 2, b"y")])
    index, group = tree.find(b"a")
    assert index == 0 and group is not None
    index, group = tree.find(b"b")
    assert index == 1 and group is None
    index, group = tree.find(b"z")
    assert index == 2 and group is None


def test_suffixes_populated_after_finalize():
    tree = build([(b"a", 3, b"new"), (b"a", 1, b"old")])
    group = tree.groups[0]
    assert group.suffixes[0] == chain_digest([b"old"])
    assert group.suffixes[1] is None


def test_position_for_ts():
    tree = build([(b"a", 9, b"n"), (b"a", 5, b"m"), (b"a", 1, b"o")])
    group = tree.groups[0]
    assert group.position_for_ts(10) == 0
    assert group.position_for_ts(9) == 0
    assert group.position_for_ts(6) == 1
    assert group.position_for_ts(1) == 2
    assert group.position_for_ts(0) is None


def test_on_hash_charged():
    charges = []
    digester = StreamingLevelDigester(on_hash=charges.append)
    digester.add(b"a", 1, b"abc")
    digester.finalize()
    assert charges  # at least record + leaf hashes


@given(
    st.lists(
        st.tuples(st.integers(0, 15), st.integers(1, 1000), st.binary(min_size=1, max_size=8)),
        min_size=1,
        max_size=40,
    )
)
def test_random_streams_consistent_with_sorted_input(raw):
    # Deduplicate (key, ts), sort into merge order.
    seen = {}
    for key_index, ts, payload in raw:
        seen[(key_index, ts)] = payload
    ordered = sorted(seen.items(), key=lambda item: (item[0][0], -item[0][1]))
    records = [
        (b"k%02d" % key_index, ts, payload)
        for (key_index, ts), payload in ordered
    ]
    tree = build(records)
    assert tree.record_count == len(records)
    assert tree.leaf_count == len({key for key, _, _ in records})


def build_counted(records, reuse=()):
    """(tree, number of hash charges) for a record stream."""
    charges = []
    digester = StreamingLevelDigester(on_hash=charges.append)
    for key, ts, encoded in records:
        digester.add(key, ts, encoded)
    return digester.finalize(reuse), len(charges)


def assert_same_digest(tree, expected):
    assert tree.root == expected.root
    assert tree.leaf_count == expected.leaf_count
    assert tree.record_count == expected.record_count
    assert [tree.tree.leaf(i) for i in range(tree.leaf_count)] == [
        expected.tree.leaf(i) for i in range(expected.leaf_count)
    ]
    assert [g.suffixes for g in tree.groups] == [g.suffixes for g in expected.groups]


def test_full_chain_digest_from_newest_suffix():
    encoded = [b"new", b"mid", b"old"]
    suffixes = suffix_digests(encoded)
    assert suffixes == [chain_digest([b"mid", b"old"]), chain_digest([b"old"]), None]
    assert hash_chain_node(encoded[0], suffixes[0]) == chain_digest(encoded)


def test_reuse_skips_exactly_the_identical_groups():
    upper = [(b"a", 2, b"a2"), (b"b", 3, b"b3"), (b"b", 1, b"b1"), (b"d", 4, b"d4")]
    source, _ = build_counted(upper)
    output = [
        (b"a", 2, b"a2"),  # identical: reused (1 record + 1 leaf)
        (b"b", 3, b"b3"),  # identical: reused (2 records + 1 leaf)
        (b"b", 1, b"b1"),
        (b"c", 5, b"c5"),  # not in the source
        (b"d", 4, b"d4"),  # identical chain...
        (b"d", 2, b"d2"),  # ...extended by an older version: rehashed
    ]
    expected, fresh_calls = build_counted(output)
    tree, calls = build_counted(output, reuse=[source])
    assert_same_digest(tree, expected)
    assert calls == fresh_calls - 2 - 3


@pytest.mark.parametrize(
    "changed",
    [
        [(b"a", 2, b"a2"), (b"b", 3, b"b3"), (b"b", 1, b"B1")],  # one byte
        [(b"a", 2, b"a2"), (b"b", 4, b"b3"), (b"b", 1, b"b1")],  # one timestamp
        [(b"a", 2, b"a2"), (b"b", 3, b"b3")],  # chain shortened
    ],
)
def test_changed_group_is_rehashed(changed):
    source, _ = build_counted([(b"a", 2, b"a2"), (b"b", 3, b"b3"), (b"b", 1, b"b1")])
    expected, fresh_calls = build_counted(changed)
    tree, calls = build_counted(changed, reuse=[source])
    assert_same_digest(tree, expected)
    assert calls == fresh_calls - 2  # only group a passed through


def test_charged_bytes_equal_hashed_bytes(hashed_bytes):
    upper = [(b"a", 2, b"a2"), (b"b", 3, b"b3"), (b"b", 1, b"b1")]
    source, _ = build_counted(upper)
    # Five leaves, so the tree promotes odd nodes (which hash nothing).
    output = upper + [(b"c", 9, b"c9"), (b"c", 5, b"c5"), (b"c", 1, b"c1"), (b"e", 1, b"e")]
    output += [(b"f", 1, b"f")]
    for reuse in ((), (source,)):
        hashed_bytes.clear()
        charges = []
        digester = StreamingLevelDigester(on_hash=charges.append)
        for key, ts, encoded in output:
            digester.add(key, ts, encoded)
        digester.finalize(reuse)
        assert sum(charges) == sum(hashed_bytes)


_streams = st.lists(
    st.tuples(st.integers(0, 12), st.integers(1, 60), st.binary(min_size=1, max_size=4)),
    max_size=30,
)


def _merge_order(raw):
    seen = {(key_index, ts): payload for key_index, ts, payload in raw}
    return [
        (b"k%02d" % key_index, ts, payload)
        for (key_index, ts), payload in sorted(
            seen.items(), key=lambda item: (item[0][0], -item[0][1])
        )
    ]


@given(_streams, _streams, _streams)
def test_reuse_is_bit_identical_to_fresh_digest(out_raw, upper_raw, lower_raw):
    output = _merge_order(out_raw)
    # Sources share some groups with the output and differ on others.
    upper, _ = build_counted(_merge_order(upper_raw + out_raw[::2]))
    lower, _ = build_counted(_merge_order(lower_raw + out_raw[1::3]))
    expected, fresh_calls = build_counted(output)
    tree, calls = build_counted(output, reuse=[upper, lower])
    assert_same_digest(tree, expected)
    reused = [
        g for g in expected.groups
        if any(
            s is not None and s.entries == g.entries
            for s in (upper.find(g.key)[1], lower.find(g.key)[1])
        )
    ]
    assert calls == fresh_calls - sum(g.chain_len + 1 for g in reused)
