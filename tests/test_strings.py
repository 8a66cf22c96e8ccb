import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from topocode.strings import (
    MOD9,
    MOD10,
    CombineOp,
    DigitRing,
    DigitString,
    GroupError,
    GroupLawError,
    GroupOpMode,
    PartitionMode,
    StringError,
    StringGroup,
    SuperString,
    build_shift_group,
    flatten_multilevel,
    group_op,
    index_law,
    law_closed,
    partition_strings,
    ring_by_name,
    self_breed,
    super_arith,
)


def ds(text, ring=MOD10):
    return DigitString.parse(text, ring)


digit_strings = st.builds(
    lambda digs, mod10: DigitString(tuple(d % (10 if mod10 else 9) for d in digs), MOD10 if mod10 else MOD9),
    st.lists(st.integers(0, 9), min_size=1, max_size=12),
    st.booleans(),
)


class TestBasicOps:
    def test_sub_mod10_table1(self):
        assert str(ds("1013412").combine(ds("2143101"), CombineOp.SUB)) == "9970311"

    def test_sub_mod9(self):
        a, b = ds("142857", MOD9), ds("758241", MOD9)
        assert str(a.combine(b, CombineOp.SUB)) == "383616"

    def test_add_identity(self):
        s = ds("1013412")
        assert s.combine(ds("0000000"), CombineOp.ADD) == s

    def test_add_mod10_table1(self):
        assert str(ds("1013412").combine(ds("2143101"), CombineOp.ADD)) == "3156513"

    def test_complement(self):
        assert str(ds("1013412").complement()) == "8986587"
        assert str(ds("475281", MOD9).complement()) == "524718"

    def test_reverse(self):
        assert str(ds("1013412").reverse()) == "2143101"
        assert str(ds("142857", MOD9).reverse()) == "758241"
        pal = ds("12321")
        assert pal.reverse() == pal

    def test_scalar_mul(self):
        s = ds("142857", MOD9)
        assert s.scale(1) == s
        # digit-wise oracle: 2*c with +9 fold
        expected = "".join(str((2 * int(c)) % 9) for c in "142857")
        assert s.scale(2).to_text() == expected
        assert s.scale(2).to_text(zero_as_nine=True) == "284715"
        assert str(ds("103").scale(3)) == "309"

    def test_length_and_ring_mismatch(self):
        with pytest.raises(StringError):
            ds("12").combine(ds("123"), CombineOp.ADD)
        with pytest.raises(StringError):
            ds("12").combine(ds("12", MOD9), CombineOp.ADD)

    @pytest.mark.parametrize("name", ["modx", "mod"])
    def test_unknown_ring_name(self, name):
        with pytest.raises(StringError, match=f"unknown digit ring {name!r}"):
            ring_by_name(name)

    def test_mod9_parse_folds_nine(self):
        assert ds("789987", MOD9) == ds("780087", MOD9)

    @pytest.mark.parametrize("text", ["²3", "١٢", "１２"])
    def test_parse_accepts_ascii_digits_only(self, text):
        # superscripts and other scripts' digits are str.isdigit() too
        with pytest.raises(StringError, match="not a digit string"):
            ds(text)

    @pytest.mark.parametrize("zero_as_nine", [False, True])
    @pytest.mark.parametrize("modulus", range(2, 11))
    @given(data=st.data())
    def test_to_text_matches_definition(self, modulus, zero_as_nine, data):
        digits = data.draw(st.lists(st.integers(0, modulus - 1), min_size=1, max_size=40))
        s = DigitString(tuple(digits), DigitRing(modulus))
        if zero_as_nine and modulus == 9:
            expected = "".join("9" if d == 0 else str(d) for d in digits)
        else:
            expected = "".join(str(d) for d in digits)
        assert s.to_text(zero_as_nine) == expected

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=40))
    def test_to_text_parses_back_under_mod10(self, digits):
        s = DigitString(tuple(digits))
        assert DigitString.parse(s.to_text()) == s

    @given(digit_strings)
    def test_complement_involution(self, s):
        assert s.complement().complement() == s

    @given(digit_strings)
    def test_reverse_involution(self, s):
        assert s.reverse().reverse() == s

    @given(digit_strings)
    def test_complement_sum_is_all_nines(self, s):
        total = s.combine(s.complement(), CombineOp.ADD)
        nines = DigitString(tuple(s.ring.reduce(9) for _ in s.digits), s.ring)
        assert total == nines


class TestShiftGroups:
    def test_table2_rows(self):
        g = build_shift_group(ds("142857", MOD9), k=1, m=9)
        shown = [e.to_text(zero_as_nine=True) for e in g.elements]
        assert shown == [
            "142857", "253968", "364179", "475281", "586392",
            "697413", "718524", "829635", "931746",
        ]

    def test_table1_rows(self):
        g = build_shift_group(ds("1013412", MOD10), k=1, m=10)
        assert str(g.elements[0]) == "1013412"
        assert str(g.elements[8]) == "9891290"
        assert str(g.elements[9]) == "0902301"

    def test_masked_group(self):
        g = build_shift_group(ds("55", MOD9), k=1, m=9, mask={0})
        assert all(e.digits[1] == 5 for e in g.elements)
        assert [e.digits[0] for e in g.elements] == [(5 + t) % 9 for t in range(9)]

    def test_group_op_mixed_family(self):
        # The D[+]D_rev family: a_i = d_i [+] d_i_rev; zero a_9, a_1 (+)(-) a_4 = a_5.
        base = build_shift_group(ds("142857", MOD9), k=1, m=9)
        family = [e.combine(e.reverse(), CombineOp.ADD) for e in base.elements]
        g = build_shift_group(family[0], k=2, m=9)
        assert list(g.elements) == family
        lam = group_op(g, 0, 3, 8)  # a_1, a_4, zero a_9 in 1-based labels
        assert lam == 4
        digitwise = family[0].combine(family[3], CombineOp.ADD).combine(family[8], CombineOp.SUB)
        assert digitwise == family[4]
        assert digitwise.to_text(zero_as_nine=True) == "789987"
        assert digitwise.to_text() == "780087"

    def test_group_op_subadd(self):
        # b_1 [-] b_4 [+] b_2 = b_8 on the comp[+]comp_rev family (shift 2 descending
        # is the same set as shift 7 ascending mod 9).
        base = build_shift_group(ds("142857", MOD9), k=1, m=9)
        family = [
            e.complement().combine(e.complement().reverse(), CombineOp.ADD)
            for e in base.elements
        ]
        g = build_shift_group(family[0], k=7, m=9)
        digitwise = family[0].combine(family[3], CombineOp.SUB).combine(family[1], CombineOp.ADD)
        assert digitwise == family[7]

    def test_zero_law(self):
        g = build_shift_group(ds("1013412"), k=1, m=10)
        for i in range(10):
            for k in range(10):
                assert group_op(g, i, k, k) == i

    def test_group_laws_exhaustive(self):
        g = build_shift_group(ds("142857", MOD9), k=1, m=9)
        m = g.order
        for i in range(m):
            for j in range(m):
                for k in range(m):
                    lam = group_op(g, i, j, k)
                    assert lam == group_op(g, j, i, k)  # commutative
                    assert 0 <= lam < m
        # associativity under a fixed zero
        for k in range(m):
            for i in range(m):
                for j in range(m):
                    for t in range(m):
                        left = group_op(g, group_op(g, i, j, k), t, k)
                        right = group_op(g, i, group_op(g, j, t, k), k)
                        assert left == right

    def test_subadd_index(self):
        g = build_shift_group(ds("142857", MOD9), k=1, m=9)
        for i in range(9):
            for j in range(9):
                for k in range(9):
                    lam = group_op(g, i, j, k, GroupOpMode.SUBADD)
                    assert lam == (i - j + k) % 9

    def test_group_op_rejects_a_float_index(self):
        g = build_shift_group(ds("123"), k=1, m=5)
        with pytest.raises(StringError, match="not integers in range"):
            group_op(g, 1.0, 0, 0)
        with pytest.raises(StringError, match="not integers in range"):
            group_op(g, 0, "1", 0)
        with pytest.raises(StringError, match="not integers in range"):
            group_op(g, 0, 0, -1)

    def test_group_op_rejects_a_bool_index(self):
        g = build_shift_group(ds("123"), k=1, m=5)
        for args in ((True, 1, 0), (1, False, 0), (1, 1, True)):
            with pytest.raises(GroupError, match="not integers in range"):
                group_op(g, *args)
        with pytest.raises(GroupError, match="not integers in range"):
            index_law(True, False, 0, 5)

    def test_non_closed_group_names_the_position(self):
        g = StringGroup((ds("12"), ds("35"), ds("40")), shift=1)
        # 35 [+] 35 [-] 12 = 58, not element 2 = 40
        with pytest.raises(GroupLawError, match="element 2 at position 0$"):
            group_op(g, 1, 1, 0)

    def test_position_moduli_must_match_the_length(self):
        with pytest.raises(StringError, match="position moduli length mismatch"):
            StringGroup((ds("12"), ds("35"), ds("40")), shift=1, position_moduli=(5,))

    def test_digit_at_its_position_modulus_is_rejected(self):
        with pytest.raises(StringError, match="element 1 has digit 3 at position 0, not below its modulus 3$"):
            StringGroup((ds("12"), ds("34")), shift=1, position_moduli=(3, 3))

    def test_masked_out_digit_at_its_position_modulus_is_rejected(self):
        with pytest.raises(StringError, match="element 0 has digit 9 at position 0, not below its modulus 3$"):
            build_shift_group(ds("95"), 1, 3, mask=[1], position_moduli=(3, 3))
        with pytest.raises(StringError, match="element 0 has digit 7 at position 1, not below its modulus 5$"):
            build_shift_group(ds("17"), 1, 5, mask=[0], position_moduli=[5, 5])
        g = build_shift_group(ds("25"), 1, 3, mask=[1], position_moduli=(3, 3))
        assert [str(e) for e in g.elements] == ["22", "20", "21"]
        assert g.closed

    def test_collision_reported(self):
        g = build_shift_group(ds("1", MOD9), k=3, m=9)
        assert g.has_collisions

    def test_serialization(self):
        g = build_shift_group(ds("142857", MOD9), k=2, m=9, mask={0, 2})
        blob = g.to_json()
        assert blob == {"seed": "142857", "k": 2, "m": 9, "ring": "mod9", "mask": [0, 2]}


@st.composite
def shift_groups(draw):
    ring = DigitRing(draw(st.integers(2, 10)))
    n = draw(st.integers(1, 8))
    digits = draw(st.lists(st.integers(0, ring.modulus - 1), min_size=n, max_size=n))
    mask = draw(st.none() | st.sets(st.integers(0, n - 1)))
    moduli = draw(st.none() | st.lists(st.integers(2, ring.modulus), min_size=n, max_size=n))
    if mask is not None and moduli is not None:
        # a masked-out digit is kept as it is, so it must lie below its modulus
        digits = [d if pos in mask else d % moduli[pos] for pos, d in enumerate(digits)]
    seed = DigitString(tuple(digits), ring)
    return build_shift_group(seed, draw(st.integers(1, 12)), draw(st.integers(2, 12)), mask, moduli)


@st.composite
def unmasked_shift_inputs(draw):
    ring = DigitRing(draw(st.integers(2, 10)))
    n = draw(st.integers(1, 70))
    seed = DigitString(tuple(draw(st.lists(st.integers(0, ring.modulus - 1), min_size=n, max_size=n))), ring)
    # k at and past the modulus too, and the smallest k that closes the group
    m = draw(st.integers(2, 12))
    k = draw(st.integers(1, 3 * ring.modulus) | st.just(ring.modulus // math.gcd(ring.modulus, m)))
    return seed, k, m


def validated_shift_group(seed, k, m, mask=None, moduli=None):
    """The shift group by the definition, through the validating constructors."""
    moduli = moduli or (seed.ring.modulus,) * len(seed)
    elements = tuple(
        DigitString(tuple(
            d if mask is not None and pos not in mask else (d + t * k) % moduli[pos]
            for pos, d in enumerate(seed.digits)
        ), seed.ring)
        for t in range(m)
    )
    return elements, moduli


class TestShiftGroupBuilder:
    @given(unmasked_shift_inputs())
    def test_unmasked_group_is_the_definition(self, inputs):
        seed, k, m = inputs
        g = build_shift_group(seed, k, m)
        M = seed.ring.modulus
        assert [e.digits for e in g.elements] == [tuple((d + t * k) % M for d in seed.digits) for t in range(m)]
        elements, moduli = validated_shift_group(seed, k, m)
        ref = StringGroup(elements, shift=k)
        assert g == ref and hash(g) == hash(ref)
        assert [hash(e) for e in g.elements] == [hash(e) for e in ref.elements]
        assert g.closed == law_closed([e.digits for e in elements], moduli) == (m * k % M == 0)

    @pytest.mark.parametrize("seed,k,m,mask,moduli", [
        ("142857", 2, 9, {0, 2}, None),
        ("142857", 1, 4, set(), None),
        ("142857", 3, 6, None, (6, 3, 9, 2, 9, 9)),
        ("428571", 1, 5, {1, 3}, (5, 5, 9, 5, 9, 9)),
        ("88", 1, 4, None, (4, 4)),
        ("142857", 1, 5, {0}, None),
    ])
    def test_masked_and_per_position_groups_are_the_definition(self, seed, k, m, mask, moduli):
        g = build_shift_group(ds(seed, MOD9), k, m, mask, moduli)
        elements, full_moduli = validated_shift_group(ds(seed, MOD9), k, m, mask, moduli)
        ref = StringGroup(elements, shift=k, mask=None if mask is None else frozenset(mask), position_moduli=moduli)
        assert g == ref and hash(g) == hash(ref)
        assert g.closed == law_closed([e.digits for e in elements], full_moduli)

    def test_closure_is_decided_without_law_closed(self, monkeypatch):
        import topocode.strings as strings

        def refuse(rows, moduli):
            raise AssertionError("law_closed called")

        monkeypatch.setattr(strings, "law_closed", refuse)
        assert build_shift_group(ds("1013412"), 5, 4).closed
        assert not build_shift_group(ds("1013412"), 3, 4).closed
        assert build_shift_group(ds("142857", MOD9), 2, 9, mask={0, 2}).closed
        with pytest.raises(AssertionError, match="law_closed called"):
            StringGroup((ds("12"), ds("35"), ds("40")), shift=1).closed


class TestGroupOpProperties:
    @given(st.integers(1, 12), st.lists(st.integers(-3, 15), min_size=3, max_size=3), st.sampled_from(GroupOpMode))
    def test_index_law_is_the_law_on_indices_in_range(self, m, indices, mode):
        i, j, z = indices
        if all(0 <= x < m for x in indices):
            want = (i + j - z) % m if mode is GroupOpMode.ADDSUB else (i - j + z) % m
            assert index_law(i, j, z, m, mode) == want
        else:
            with pytest.raises(GroupError, match=r"not integers in range\(%d\)" % m):
                index_law(i, j, z, m, mode)

    @given(shift_groups(), st.data(), st.sampled_from(GroupOpMode))
    def test_group_op_is_the_digitwise_law(self, g, data, mode):
        index = st.integers(0, g.order - 1)
        i, j, z = data.draw(index), data.draw(index), data.draw(index)
        sign = 1 if mode is GroupOpMode.ADDSUB else -1
        lam = (i + sign * (j - z)) % g.order
        a, b, c = (g.elements[x].digits for x in (i, j, z))
        moduli = g.position_moduli or (g.ring.modulus,) * len(a)
        want = tuple((x + sign * (y - w)) % mod for x, y, w, mod in zip(a, b, c, moduli))
        target = g.elements[lam].digits
        if want == target:
            assert group_op(g, i, j, z, mode) == lam
        else:
            pos = next(p for p in range(len(want)) if want[p] != target[p])
            with pytest.raises(GroupLawError, match=f"element {lam} at position {pos}$"):
                group_op(g, i, j, z, mode)


class TestSuperStrings:
    def test_shift_by_152(self):
        s = SuperString(((6174, 9999), (123, 999), (0, 9), (618, 999), (3, 9), (141, 999)))
        assert super_arith(s, 152, "+").values() == (6326, 275, 8, 770, 2, 293)
        assert super_arith(s, 152, "-").values() == (6022, 970, 1, 466, 4, 988)

    def test_zero_shift(self):
        s = SuperString(((12, 99), (3, 9)))
        assert super_arith(s, 0, "+") == s

    def test_inverse_pair(self):
        s = SuperString(((12, 99), (3, 9), (982, 999)))
        for t in range(0, 1000, 7):
            assert super_arith(super_arith(s, t, "+"), t, "-") == s

    def test_parse_roundtrip(self):
        s = SuperString.parse("6174|9999,123|999,0|9")
        assert str(s) == "6174|9999,123|999,0|9"

    def test_bad_modulus(self):
        with pytest.raises(StringError):
            SuperString(((5, 10),))


class TestSelfBreed:
    def test_depth1_counts(self):
        samples, total = self_breed(["214", "1001", "68"], depth=1)
        assert total == 54
        assert len(samples) == 6
        assert {str(s) for s in samples} == {
            "214100168", "214681001", "100121468",
            "100168214", "682141001", "681001214",
        }

    def test_depth2_counts(self):
        _, total = self_breed(["214", "1001", "68"], depth=2)
        assert total == 38880

    def test_closed_form(self):
        strings = ["12", "345", "6"]
        byte1 = sum(len(s) for s in strings)
        sizes = [3]
        for _ in range(3):
            sizes.append(math.factorial(sizes[-1]))
        expected = byte1 * math.prod(math.factorial(m) for m in sizes[:3])
        _, total = self_breed(strings, depth=3)
        assert total == expected

    def test_exact_beyond_word_size(self):
        _, total = self_breed(["1", "2", "3"], depth=3)
        assert total > 2**64  # the 720! factor dwarfs any fixed-width counter

    def test_unrepresentable_depth_rejected(self):
        with pytest.raises(StringError):
            self_breed(["1", "2", "3"], depth=4)  # needs factorial(720!)
        with pytest.raises(StringError):
            self_breed(list("1234567"), depth=3)  # needs factorial(5040!), 16 326 digits to print

    def test_single_string_rejected(self):
        with pytest.raises(StringError):
            self_breed(["123"], depth=1)

    def test_deterministic_samples(self):
        a, _ = self_breed(["1", "2", "3", "4", "5", "6", "7", "8"], depth=2, seed=5)
        b, _ = self_breed(["1", "2", "3", "4", "5", "6", "7", "8"], depth=2, seed=5)
        assert a == b
        # 8! > 4000, so the samples are 64 seeded shuffles of the strings
        assert len(a) == 64
        assert [str(s) for s in a[:4]] == ["74218365", "57643821", "73461852", "85612473"]
        assert str(a[-1]) == "42376815"


class TestMultiLevel:
    def test_three_level_rank_example(self):
        basic = {
            "a": ds("6174314"),
            "b": ds("1123061"),
            "c": ds("8142857"),
        }
        tree = [
            [basic["a"], basic["b"], basic["c"]],
            [basic["b"], basic["c"], basic["a"]],
            [basic["c"], basic["b"], basic["a"]],
            [basic["a"], basic["c"], basic["b"]],
        ]
        flat = flatten_multilevel(tree)
        assert len(flat) == 84
        assert str(flat).startswith("617431411230618142857")

    def test_single_leaf(self):
        s = ds("42")
        assert flatten_multilevel(s) == s

    def test_two_leaves(self):
        assert str(flatten_multilevel([ds("12"), ds("34")])) == "1234"

    def test_empty_node(self):
        with pytest.raises(StringError):
            flatten_multilevel([])


class TestPartitions:
    def test_m5_sum(self):
        specs = partition_strings(5, PartitionMode.SUM)
        parts = [spec.parts for spec, _ in specs]
        assert parts == [
            (4, 1), (3, 2), (3, 1, 1), (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1),
        ]
        assert str(specs[0][1]) == "41"

    def test_m2_sum(self):
        specs = partition_strings(2, PartitionMode.SUM)
        assert [spec.parts for spec, _ in specs] == [(1, 1)]

    def test_m27_product(self):
        specs = partition_strings(27, PartitionMode.PRODUCT)
        assert [spec.parts for spec, _ in specs] == [(9, 3), (3, 3, 3)]

    def test_prime_product_empty(self):
        assert partition_strings(7, PartitionMode.PRODUCT) == []

    @pytest.mark.parametrize("limit", [0, -1])
    @pytest.mark.parametrize("mode", list(PartitionMode))
    def test_limit_below_one_rejected(self, mode, limit):
        with pytest.raises(StringError, match=f"partition limit must be >= 1, got {limit}"):
            partition_strings(6, mode, limit=limit)

    def test_limit_caps_the_list(self):
        specs = partition_strings(6, PartitionMode.SUM, limit=1)
        assert [spec.parts for spec, _ in specs] == [(5, 1)]

    def test_sum_oracle_brute_force(self):
        # independent count: partitions of 8 with >= 2 parts
        def brute(m):
            found = set()

            def rec(remaining, max_part, acc):
                if remaining == 0:
                    if len(acc) >= 2:
                        found.add(tuple(acc))
                    return
                for p in range(min(remaining, max_part), 0, -1):
                    rec(remaining - p, p, acc + [p])

            rec(m, m - 1, [])
            return found

        specs = partition_strings(8, PartitionMode.SUM)
        assert {spec.parts for spec, _ in specs} == brute(8)


def test_super_arith_inverse_full_range():
    from topocode.strings import SuperString, super_arith

    s = SuperString(((12, 99), (3, 9)))
    for t in range(0, 100):  # the full [0, max modulus] window
        assert super_arith(super_arith(s, t, "+"), t, "-") == s


def test_position_moduli_group():
    from topocode.strings import MOD9, DigitString, build_shift_group, group_op

    seed = DigitString.parse("123", MOD9)
    g = build_shift_group(seed, k=1, m=6, position_moduli=(6, 6, 6))
    for i in range(6):
        for j in range(6):
            for z in range(6):
                assert group_op(g, i, j, z) == (i + j - z) % 6


def test_position_moduli_validation():
    from topocode.strings import MOD9, DigitString, StringError, build_shift_group

    seed = DigitString.parse("123", MOD9)
    with pytest.raises(StringError):
        build_shift_group(seed, k=1, m=6, position_moduli=(12, 6, 6))
