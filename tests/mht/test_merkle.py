"""Merkle trees and authentication paths."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cryptoprim.hashing import hash_internal, sha256
from repro.mht.merkle import EMPTY_ROOT, MerkleTree, ProofError, compute_root


def leaves(n):
    return [sha256(b"leaf-%d" % i) for i in range(n)]


def test_empty_tree_root():
    assert MerkleTree([]).root == EMPTY_ROOT
    assert MerkleTree([]).n == 0


def test_single_leaf_root_is_leaf():
    ls = leaves(1)
    assert MerkleTree(ls).root == ls[0]


def test_two_leaf_root():
    ls = leaves(2)
    assert MerkleTree(ls).root == hash_internal(ls[0], ls[1])


def test_promotion_of_odd_leaf():
    ls = leaves(3)
    tree = MerkleTree(ls)
    expected = hash_internal(hash_internal(ls[0], ls[1]), ls[2])
    assert tree.root == expected


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16, 17, 33])
def test_every_auth_path_verifies(n):
    ls = leaves(n)
    tree = MerkleTree(ls)
    for index in range(n):
        path = tree.auth_path(index)
        assert compute_root(ls[index], index, n, path) == tree.root


@pytest.mark.parametrize("n", [2, 5, 8, 13])
def test_wrong_leaf_fails(n):
    ls = leaves(n)
    tree = MerkleTree(ls)
    path = tree.auth_path(0)
    assert compute_root(sha256(b"forged"), 0, n, path) != tree.root


def test_wrong_index_fails_or_mismatches():
    ls = leaves(8)
    tree = MerkleTree(ls)
    path = tree.auth_path(3)
    try:
        root = compute_root(ls[3], 4, 8, path)
        assert root != tree.root
    except ProofError:
        pass


def test_path_too_short_raises():
    ls = leaves(8)
    tree = MerkleTree(ls)
    path = tree.auth_path(0)[:-1]
    with pytest.raises(ProofError):
        compute_root(ls[0], 0, 8, path)


def test_path_too_long_raises():
    ls = leaves(8)
    tree = MerkleTree(ls)
    path = tree.auth_path(0) + [sha256(b"extra")]
    with pytest.raises(ProofError):
        compute_root(ls[0], 0, 8, path)


def test_out_of_range_index_raises():
    with pytest.raises(ProofError):
        compute_root(sha256(b"x"), 5, 4, [])
    with pytest.raises(ProofError):
        compute_root(sha256(b"x"), 0, 0, [])


def test_auth_path_index_bounds():
    tree = MerkleTree(leaves(4))
    with pytest.raises(IndexError):
        tree.auth_path(4)


def test_root_changes_with_any_leaf():
    base = MerkleTree(leaves(10)).root
    for index in range(10):
        mutated = leaves(10)
        mutated[index] = sha256(b"mutated")
        assert MerkleTree(mutated).root != base


def test_root_depends_on_leaf_order():
    ls = leaves(6)
    swapped = list(ls)
    swapped[1], swapped[2] = swapped[2], swapped[1]
    assert MerkleTree(ls).root != MerkleTree(swapped).root


@given(st.integers(min_value=1, max_value=64), st.data())
def test_random_tree_paths_verify(n, data):
    ls = leaves(n)
    tree = MerkleTree(ls)
    index = data.draw(st.integers(min_value=0, max_value=n - 1))
    assert compute_root(ls[index], index, n, tree.auth_path(index)) == tree.root


def test_hash_node_count():
    # 4 leaves: 2 internal at level 1 + 1 root = 3
    assert MerkleTree(leaves(4)).hash_node_count() == 3
    # 5 leaves: 2 + 1 + 1 hashed; the promoted odd nodes cost nothing
    assert MerkleTree(leaves(5)).hash_node_count() == 4
