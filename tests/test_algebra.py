import hashlib
import itertools

import pytest

from enumorder import cli

from enumorder.algebra import Chain, chain_stabilize, make_strict_chain, transport
from enumorder.errors import EnumOrderError, LengthMismatch
from enumorder.prefixes import (
    PrefixListing,
    inverse_lookup,
    inversions,
    make_prefix,
    standardize,
)


def perms(n, base=1):
    return [
        PrefixListing(tuple(p))
        for p in itertools.permutations(range(base, base + n))
    ]


class TestInverseLookup:
    def test_scan(self):
        assert inverse_lookup(make_prefix([6, 2, 4]), 4) == 3

    def test_first(self):
        assert inverse_lookup(make_prefix([6, 2, 4]), 6) == 1

    def test_absent(self):
        with pytest.raises(EnumOrderError, match="^value not enumerated in prefix: 5$"):
            inverse_lookup(make_prefix([6, 2, 4]), 5)


class TestTransport:
    def test_identity_transport(self):
        h = make_prefix([2, 4, 6])
        g_prime = make_prefix([2, 3, 4])
        assert transport(h, h, g_prime) == g_prime

    def test_positionwise_composition(self):
        got = transport(
            make_prefix([6, 2, 4]), make_prefix([2, 4, 6]), make_prefix([2, 3, 4])
        )
        assert got.values == (4, 2, 3)
        assert standardize(got) == standardize(make_prefix([6, 2, 4]))

    def test_through_equal_listings(self):
        h = make_prefix([6, 2, 4])
        asc = make_prefix([2, 4, 6])
        assert transport(h, asc, asc) == h

    def test_value_set_mismatch(self):
        with pytest.raises(EnumOrderError, match="^h and h_prime enumerate different values$"):
            transport(make_prefix([1, 2]), make_prefix([1, 3]), make_prefix([4, 5]))

    @pytest.mark.parametrize(
        "h_prime", [[9, 3, 7, 5], [5, 9, 3, 7]], ids=["lacks-first", "lacks-last"]
    )
    def test_value_set_mismatch_at_either_end(self, h_prime):
        # h = 2 3 5 7; h_prime swaps out its first value, then its last
        with pytest.raises(EnumOrderError, match="^h and h_prime enumerate different values$"):
            transport(make_prefix([2, 3, 5, 7]), make_prefix(h_prime), make_prefix([1, 2, 3, 4]))

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            transport(make_prefix([1, 2]), make_prefix([2, 1]), make_prefix([4]))

    def test_h_prime_length_mismatch(self):
        # h_prime is checked first, so g_prime's equal length does not hide it
        with pytest.raises(LengthMismatch, match="^prefix lengths differ: 2 != 1$"):
            transport(make_prefix([1, 2]), make_prefix([1]), make_prefix([4, 5]))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_pattern_preserved_exhaustively(self, n):
        # whenever g' matches h' in pattern, the result matches h in pattern
        for h, h_prime in itertools.product(perms(n), repeat=2):
            g_prime = PrefixListing(
                tuple(v + n for v in standardize(h_prime).ranks)
            )
            got = transport(h, h_prime, g_prime)
            assert standardize(got) == standardize(h)
            assert sorted(got.values) == sorted(g_prime.values)


class TestChainStabilize:
    def test_least_repeat(self):
        chain = Chain(
            (make_prefix([2, 1, 3]), make_prefix([1, 2, 3]), make_prefix([1, 2, 3]))
        )
        assert chain_stabilize(chain) == (2, 3)

    def test_immediate_repeat(self):
        chain = Chain((make_prefix([2, 4, 6]), make_prefix([2, 4, 6])))
        assert chain_stabilize(chain) == (1, 2)

    def test_no_repeat(self):
        chain = Chain((make_prefix([2, 1]), make_prefix([1, 2])))
        assert chain_stabilize(chain) is None

    def test_invariant_violated(self):
        chain = Chain((make_prefix([1, 2]), make_prefix([2, 1])))
        message = "^chain not descending at step 1: listing 2 is not reducible to listing 1$"
        with pytest.raises(EnumOrderError, match=message):
            chain_stabilize(chain)

    def test_value_set_pinned(self):
        chain = Chain((make_prefix([1, 2]), make_prefix([3, 4])))
        with pytest.raises(EnumOrderError, match="^value set changes at step 1$"):
            chain_stabilize(chain)

    def test_value_set_change_names_its_step(self):
        # listings 1..3 share {1, 2, 3}; listing 4 swaps 3 for 4
        chain = Chain(
            (make_prefix([3, 2, 1]), make_prefix([3, 1, 2]), make_prefix([1, 2, 3]),
             make_prefix([1, 2, 4]))
        )
        with pytest.raises(EnumOrderError, match="^value set changes at step 3$"):
            chain.validate()

    def test_tie_breaking_prefers_early_j(self):
        a, b = make_prefix([2, 1, 3]), make_prefix([1, 2, 3])
        chain = Chain((a, a, b, b))
        assert chain_stabilize(chain) == (1, 2)


def search_chain(n):
    """The chain as make_strict_chain once built it: from the reversal, swap
    the smallest adjacent value pair (k, k+1) enumerated out of order, found
    by a search over k at each step, until none is left."""
    current = list(range(n, 0, -1))
    out = [tuple(current)]
    pos = {v: i for i, v in enumerate(current)}
    while True:
        k = next((k for k in range(1, n) if pos[k + 1] < pos[k]), None)
        if k is None:
            return out
        i, j = pos[k + 1], pos[k]
        current[i], current[j] = current[j], current[i]
        pos[k], pos[k + 1] = i, j
        out.append(tuple(current))


class TestMakeStrictChain:
    def test_single(self):
        assert [p.values for p in make_strict_chain(1).listings] == [(1,)]

    def test_one_transposition(self):
        assert [p.values for p in make_strict_chain(2).listings] == [(2, 1), (1, 2)]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_strict_descent(self, n):
        chain = make_strict_chain(n)
        chain.validate()
        assert len(chain) == n * (n - 1) // 2 + 1
        assert chain.listings[0].values == tuple(range(n, 0, -1))
        assert chain.listings[-1].values == tuple(range(1, n + 1))
        for a, b in zip(chain.listings, chain.listings[1:]):
            ia, ib = frozenset(inversions(a)), frozenset(inversions(b))
            assert ib < ia and len(ia) - len(ib) == 1
        assert chain_stabilize(chain) is None

    @pytest.mark.parametrize("n", range(1, 25))
    def test_closed_form_matches_search(self, n):
        assert [p.values for p in make_strict_chain(n).listings] == search_chain(n)

    @pytest.mark.slow
    def test_closed_form_matches_search_at_the_cap(self, capsys):
        assert [p.values for p in make_strict_chain(256).listings] == search_chain(256)
        assert cli.main(["chain-make", "--n", "256"]) == 0
        out = capsys.readouterr().out.encode()
        assert hashlib.md5(out).hexdigest() == "62c74463cb124838b9518ba6391e49d0"
