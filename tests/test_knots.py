"""Tests for braid words, Burau-based Conway polynomials, and the catalog."""

import json
import random
import time

import pytest

from mmjones import knots
from mmjones.exactalg import LaurentPoly
from mmjones.knots import (
    DEFAULT_CATALOG_ENTRIES,
    LETTERS_CEILING,
    RECORDS_CEILING,
    STRANDS_CEILING,
    BraidWord,
    CatalogError,
    InvalidTorusParametersError,
    KnotRecord,
    NotAKnotError,
    PresentationError,
    TorusParams,
    catalog_lookup,
    conway_poly,
    conway_torus,
    default_catalog,
    load_catalog,
    reduced_burau,
    symmetric_laurent_to_z2,
    _determinant,
)
from oracle_algebra import burau_by_matrix_products, conjugated, mirror, stabilized


def mat_eq(a, b):
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


class TestBraidWord:
    def test_component_counts(self):
        assert BraidWord(1, []).closure_component_count() == 1
        assert BraidWord(2, [1, 1, 1]).closure_component_count() == 1
        assert BraidWord(2, [1, 1]).closure_component_count() == 2

    def test_writhe(self):
        assert BraidWord(2, [1, 1, 1]).writhe() == 3
        assert BraidWord(3, [1, -2, 1, -2]).writhe() == 0
        assert BraidWord(4, []).writhe() == 0

    def test_letter_validation(self):
        with pytest.raises(ValueError):
            BraidWord(2, [2])
        with pytest.raises(ValueError):
            BraidWord(3, [0])

    @pytest.mark.parametrize("strands, letters, message", [
        (2, (1.5, 1.9, True), "letter 1.5 is not an integer"),
        (2, (1, True), "letter True is not an integer"),
        (2.7, (1,), "strands must be an integer, not 2.7"),
        (True, (), "strands must be an integer, not True"),
    ], ids=["float-letter", "bool-letter", "float-strands", "bool-strands"])
    def test_rejects_non_integers(self, strands, letters, message):
        with pytest.raises(ValueError) as err:
            BraidWord(strands, letters)
        assert str(err.value) == message


class TestBurau:
    def test_braid_relations(self):
        a = reduced_burau(BraidWord(3, [1, 2, 1]))
        b = reduced_burau(BraidWord(3, [2, 1, 2]))
        assert mat_eq(a, b)
        a = reduced_burau(BraidWord(4, [1, 3]))
        b = reduced_burau(BraidWord(4, [3, 1]))
        assert mat_eq(a, b)

    def test_inverse_letters(self):
        m = reduced_burau(BraidWord(4, [2, -2]))
        ident = reduced_burau(BraidWord(4, []))
        assert mat_eq(m, ident)

    @pytest.mark.parametrize("seed", range(60))
    def test_row_updates_match_matrix_products(self, seed):
        rng = random.Random(seed)
        strands = 1 + seed % 6
        length = 0 if strands == 1 or seed % 7 == 0 else rng.randint(1, 12)
        word = [rng.choice((1, -1)) * rng.randint(1, strands - 1) for _ in range(length)]
        b = BraidWord(strands, word)
        assert reduced_burau(b) == burau_by_matrix_products(b)


def z2_to_laurent(coeffs) -> LaurentPoly:
    """Sum of c_d (t - 2 + 1/t)^d, expanded in t."""
    z2 = LaurentPoly("t", {-1: 1, 0: -2, 1: 1})
    out, power = LaurentPoly.zero("t"), LaurentPoly.one("t")
    for c in coeffs:
        out = out + c * power
        power = power * z2
    return out


class TestZ2Conversion:
    @pytest.mark.parametrize("seed", range(30))
    def test_round_trip(self, seed):
        rng = random.Random(seed)
        top = seed % 8
        terms = {0: rng.randint(-9, 9)}
        for j in range(1, top + 1):
            terms[j] = terms[-j] = rng.randint(-9, 9)
        p = LaurentPoly("t", terms)
        z = symmetric_laurent_to_z2(p)
        coeffs = [z.coeff(e) for e in range(0, 2 * top + 1, 2)]
        assert z == LaurentPoly.from_z2_coeffs(coeffs)
        assert z2_to_laurent(coeffs) == p

    @pytest.mark.parametrize("c", [0, 1, -3])
    def test_zero_and_constants(self, c):
        assert symmetric_laurent_to_z2(LaurentPoly("t", {0: c})) == LaurentPoly("z", {0: c})

    def test_rejects_non_symmetric(self):
        with pytest.raises(PresentationError, match="not symmetric"):
            symmetric_laurent_to_z2(LaurentPoly("t", {-1: 1, 0: 1, 2: 1}))


def cofactor_determinant(mat):
    """Determinant by cofactor expansion along the first row."""
    if not mat:
        return LaurentPoly.one("t")
    det = LaurentPoly.zero("t")
    for j, c in enumerate(mat[0]):
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        term = c * cofactor_determinant(minor)
        det = det + term if j % 2 == 0 else det - term
    return det


def random_laurent(rng):
    if rng.random() < 0.4:
        return LaurentPoly.zero("t")
    return LaurentPoly("t", {rng.randint(-2, 2): rng.randint(-3, 3) for _ in range(rng.randint(1, 3))})


class TestDeterminant:
    @pytest.mark.parametrize("seed", range(40))
    def test_bareiss_matches_cofactor(self, seed):
        rng = random.Random(seed)
        n = 1 + seed % 5
        mat = [[random_laurent(rng) for _ in range(n)] for _ in range(n)]
        assert _determinant(mat) == cofactor_determinant(mat)

    def test_zero_pivots_and_singular(self):
        z, one, t = LaurentPoly.zero("t"), LaurentPoly.one("t"), LaurentPoly.monomial("t", 1)
        swapped = [[z, t, one], [one, z, z], [z, one, t]]
        assert _determinant(swapped) == cofactor_determinant(swapped)
        assert _determinant([[z, one], [z, t]]).is_zero()
        assert _determinant([]) == one

    def test_catalog_conway_unchanged(self):
        for entry in DEFAULT_CATALOG_ENTRIES:
            braid = BraidWord(entry["strands"], entry["braid"])
            assert conway_poly(braid) == LaurentPoly.from_z2_coeffs(entry["conway"])


class TestConway:
    def test_unknot(self):
        assert conway_poly(BraidWord(1, [])) == LaurentPoly.one("z")

    def test_trefoil_matches_torus(self):
        assert conway_poly(BraidWord(2, [1, 1, 1])) == conway_torus(TorusParams(2, 3))

    def test_catalog_values(self):
        assert conway_poly(BraidWord(3, [1, -2, 1, -2])) == LaurentPoly.from_z2_coeffs([1, -1])
        assert conway_poly(BraidWord(3, [-1, -1, -1, -2, 1, -2])) == LaurentPoly.from_z2_coeffs([1, 2])
        assert conway_poly(BraidWord(4, [1, 1, 2, -1, -3, 2, -3])) == LaurentPoly.from_z2_coeffs([1, -2])
        assert conway_poly(
            BraidWord(5, [1, 1, 2, -1, -3, 2, -3, -4, 3, -4])
        ) == LaurentPoly.from_z2_coeffs([1, -4])

    def test_rejects_links(self):
        with pytest.raises(NotAKnotError):
            conway_poly(BraidWord(2, [1, 1]))

    def test_even_powers_and_normalization(self):
        for strands, word in [(2, [1, 1, 1]), (3, [1, -2, 1, -2]), (3, [-1, -1, -1, -2, 1, -2])]:
            c = conway_poly(BraidWord(strands, word))
            assert c.var == "z" and c.min_exp() >= 0 and c.exponents_divisible_by(2)
            assert c.coeff(0) == 1
            assert all(type(v) is int for v in c.terms.values())

    def test_markov_moves_invariance(self):
        base = BraidWord(3, [-1, -1, -1, -2, 1, -2])
        expected = conway_poly(base)
        assert conway_poly(stabilized(base, 1)) == expected
        assert conway_poly(stabilized(base, -1)) == expected
        assert conway_poly(conjugated(base, 2)) == expected
        assert conway_poly(conjugated(base, -1)) == expected

    def test_mirror_invariance_of_conway(self):
        base = BraidWord(4, [1, 1, 2, -1, -3, 2, -3])
        assert conway_poly(mirror(base)) == conway_poly(base)


class TestConwayTorus:
    @pytest.mark.parametrize(
        "p,q,coeffs",
        [
            (2, 3, [1, 1]),
            (2, 5, [1, 3, 1]),
            (2, 7, [1, 6, 5, 1]),
            (3, 5, [1, 8, 14, 7, 1]),
        ],
    )
    def test_golden(self, p, q, coeffs):
        assert conway_torus(TorusParams(p, q)) == LaurentPoly.from_z2_coeffs(coeffs)

    def test_symmetry(self):
        assert conway_torus(TorusParams(3, 5)) == conway_torus(TorusParams(5, 3))
        assert conway_torus(TorusParams(2, 7)) == conway_torus(TorusParams(7, 2))

    def test_braid_matches_closed_form(self):
        for p, q in [(2, 3), (2, 5), (3, 5)]:
            t = TorusParams(p, q)
            assert conway_poly(t.braid()) == conway_torus(t)

    def test_invalid_params(self):
        with pytest.raises(InvalidTorusParametersError):
            TorusParams(2, 4)
        with pytest.raises(InvalidTorusParametersError):
            TorusParams(1, 5)


class TestCatalog:
    def test_default_catalog_loads(self):
        records = default_catalog()
        names = [r.name for r in records]
        assert names == ["unknot", "3_1", "4_1", "5_2", "6_1", "8_3"]
        rec = catalog_lookup(records, "4_1")
        assert rec.amphicheiral
        assert rec.conway == LaurentPoly.from_z2_coeffs([1, -1])

    def test_json_round_trip(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text(
            json.dumps(
                [
                    {
                        "name": "4_1",
                        "strands": 3,
                        "braid": [1, -2, 1, -2],
                        "amphicheiral": True,
                        "conway": [1, -1],
                    }
                ]
            )
        )
        records = load_catalog(str(path))
        assert records[0].name == "4_1"

    def test_rejects_multi_component(self):
        with pytest.raises(NotAKnotError):
            load_catalog([{"name": "hopf", "strands": 2, "braid": [1, 1]}])

    def test_rejects_conway_mismatch(self):
        with pytest.raises(CatalogError) as err:
            load_catalog(
                [
                    {
                        "name": "5_2",
                        "strands": 3,
                        "braid": [-1, -1, -1, -2, 1, -2],
                        "conway": [1, -2],
                    }
                ]
            )
        assert str(err.value) == (
            "5_2: computed Conway polynomial 1 + 2*z^2 does not match expected 1 + -2*z^2"
        )

    def test_rejects_schema_violations(self, tmp_path):
        with pytest.raises(CatalogError):
            load_catalog([{"name": "x", "strands": "3", "braid": []}])
        with pytest.raises(CatalogError):
            load_catalog([{"name": "x", "strands": 3, "braid": [1.5]}])
        path = tmp_path / "bad.json"
        path.write_text("not json [")
        with pytest.raises(CatalogError):
            load_catalog(str(path))

    def test_rejects_strands_no_word_can_close(self):
        # rejected before a braid word of that width is built
        start = time.perf_counter()
        with pytest.raises(CatalogError, match="at least 999999999 letters"):
            load_catalog([{"name": "x", "strands": 10 ** 9, "braid": []}])
        assert time.perf_counter() - start < 1.0
        unknot = load_catalog([{"name": "unknot", "strands": 1, "braid": []}])
        assert [r.name for r in unknot] == ["unknot"]
        assert len(load_catalog(DEFAULT_CATALOG_ENTRIES)) == len(DEFAULT_CATALOG_ENTRIES)

    def test_rejects_records_over_a_ceiling(self, tmp_path):
        # each record is one over one ceiling, and fails before its Conway gate
        over = [
            ({"name": "wide", "strands": STRANDS_CEILING + 1, "braid": list(range(1, STRANDS_CEILING + 1))},
             f"wide: {STRANDS_CEILING + 1} strands exceed the ceiling of {STRANDS_CEILING} strands"),
            ({"name": "long", "strands": 2, "braid": [1] * (LETTERS_CEILING + 1)},
             f"long: {LETTERS_CEILING + 1} letters exceed the ceiling of {LETTERS_CEILING} letters"),
        ]
        for record, message in over:
            path = tmp_path / f"{record['name']}.json"
            path.write_text(json.dumps([record]))
            for source in ([record], str(path)):
                with pytest.raises(CatalogError) as err:
                    load_catalog(source)
                assert str(err.value) == message
        # at the letter ceiling a record loads
        at = {"name": "at", "strands": 3, "braid": [1, 2] * ((LETTERS_CEILING - 2) // 2) + [1, 1]}
        assert len(at["braid"]) == LETTERS_CEILING
        assert [r.name for r in load_catalog([at])] == ["at"]

    def test_rejects_a_catalog_over_the_records_ceiling(self, tmp_path, monkeypatch):
        records = [{"name": f"u{i}", "strands": 1, "braid": []} for i in range(RECORDS_CEILING + 1)]
        path = tmp_path / "many.json"
        path.write_text(json.dumps(records))
        gated = []
        monkeypatch.setattr(knots, "conway_poly", lambda b: gated.append(b))
        for source in (records, str(path)):
            with pytest.raises(CatalogError) as err:
                load_catalog(source)
            assert str(err.value) == (
                f"{RECORDS_CEILING + 1} records exceed the ceiling of {RECORDS_CEILING} records")
        # the count is checked before any record's Conway gate runs
        assert gated == []
        monkeypatch.undo()
        assert len(load_catalog(records[:RECORDS_CEILING])) == RECORDS_CEILING

    def test_path_with_brackets(self, tmp_path):
        folder = tmp_path / "a[1]"
        folder.mkdir()
        path = folder / "c.json"
        path.write_text(json.dumps([{"name": "3_1", "strands": 2, "braid": [1, 1, 1]}]))
        assert [r.name for r in load_catalog(str(path))] == ["3_1"]
        assert [r.name for r in load_catalog(path)] == ["3_1"]

    def test_rejects_other_sources(self):
        with pytest.raises(TypeError):
            load_catalog(({"name": "unknot", "strands": 1, "braid": []},))

    def test_unknown_lookup(self):
        with pytest.raises(CatalogError):
            catalog_lookup(default_catalog(), "9_42")
