from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from abscompat import (
    AlgebraElement,
    AlgebraShape,
    build_sandwich,
    build_star_anti_hom,
    build_star_hom,
    transpose_map,
    unit,
)
from abscompat.sampling import rand_contraction, rand_unitary
from abscompat.serialize import (
    FileFormatError,
    dumps_canonical,
    load_map,
    load_matrix,
    map_from_dict,
    map_to_dict,
    matrix_from_dict,
    matrix_to_dict,
    save_map,
    save_matrix,
)

SH2 = AlgebraShape((2,))


class TestMatrixRoundTrip:
    def test_value_round_trip(self, rng):
        el = rand_contraction(rng, AlgebraShape((2, 3)))
        back = matrix_from_dict(matrix_to_dict(el))
        np.testing.assert_array_equal(back.matrix, el.matrix)
        assert back.shape == el.shape

    def test_file_round_trip(self, rng, tmp_path):
        el = rand_contraction(rng, AlgebraShape((1, 2)))
        path = tmp_path / "m.json"
        save_matrix(el, path)
        np.testing.assert_array_equal(load_matrix(path).matrix, el.matrix)

    def test_serialize_parse_serialize_idempotent(self, rng, tmp_path):
        el = rand_contraction(rng, AlgebraShape((2, 2)))
        text1 = dumps_canonical(matrix_to_dict(el))
        text2 = dumps_canonical(matrix_to_dict(matrix_from_dict(json.loads(text1))))
        assert text1 == text2

    def test_entries_are_re_im_pairs(self):
        payload = matrix_to_dict(unit(SH2))
        assert payload["blocks"][0][0][0] == [1.0, 0.0]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_matrix_round_trip_property(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(int(d) for d in rng.integers(1, 4, size=rng.integers(1, 4)))
    el = rand_contraction(rng, AlgebraShape(dims))
    back = matrix_from_dict(matrix_to_dict(el))
    np.testing.assert_array_equal(back.matrix, el.matrix)


class TestMatrixValidation:
    def test_requires_object(self):
        with pytest.raises(FileFormatError):
            matrix_from_dict([1, 2])

    def test_shape_field(self):
        with pytest.raises(FileFormatError):
            matrix_from_dict({"shape": [], "blocks": []})
        with pytest.raises(FileFormatError):
            matrix_from_dict({"shape": [0], "blocks": [[]]})

    def test_block_count(self):
        with pytest.raises(FileFormatError):
            matrix_from_dict({"shape": [1, 1], "blocks": [[[[1.0, 0.0]]]]})

    def test_entry_form(self):
        with pytest.raises(FileFormatError):
            matrix_from_dict({"shape": [1], "blocks": [[[1.0]]]})
        with pytest.raises(FileFormatError):
            matrix_from_dict({"shape": [1], "blocks": [[[[1.0, "x"]]]]})

    def test_nonfinite_rejected(self):
        with pytest.raises(FileFormatError):
            matrix_from_dict({"shape": [1], "blocks": [[[[np.inf, 0.0]]]]})

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(FileFormatError):
            load_matrix(path)


class TestMapFiles:
    def test_action_round_trip(self, rng, tmp_path):
        T = build_sandwich(rand_unitary(rng, SH2), rand_unitary(rng, SH2))
        path = tmp_path / "map.json"
        save_map(T, path)
        back = load_map(path)
        np.testing.assert_allclose(back.action, T.action, atol=0)

    def test_map_file_holds_the_shapes_and_the_action_only(self):
        payload = map_to_dict(build_star_hom(SH2, AlgebraShape((2, 2)), [0, 0]))
        assert list(payload) == ["domain_shape", "codomain_shape", "action"]

    def test_serialize_parse_serialize_idempotent(self, rng):
        T = transpose_map(AlgebraShape((2, 1)))
        text1 = dumps_canonical(map_to_dict(T))
        text2 = dumps_canonical(map_to_dict(map_from_dict(json.loads(text1))))
        assert text1 == text2

    def test_builder_star_hom(self, rng):
        w = rand_unitary(rng, SH2).blocks()[0]
        payload = {
            "domain_shape": [2],
            "codomain_shape": [2, 2],
            "builder": {
                "kind": "star_hom",
                "block_assignment": [0, None],
                "unitaries": [
                    [[[w[0, 0].real, w[0, 0].imag], [w[0, 1].real, w[0, 1].imag]],
                     [[w[1, 0].real, w[1, 0].imag], [w[1, 1].real, w[1, 1].imag]]],
                    None,
                ],
            },
        }
        T = map_from_dict(payload)
        ref = build_star_hom(SH2, AlgebraShape((2, 2)), [0, None], [w, None])
        np.testing.assert_allclose(T.action, ref.action, atol=1e-15)

    def test_builder_star_anti_hom(self, rng, tmp_path):
        w = rand_unitary(rng, AlgebraShape((3,)))
        path = tmp_path / "anti.json"
        path.write_text(json.dumps({
            "domain_shape": [2, 3], "codomain_shape": [3, 2],
            "builder": {"kind": "star_anti_hom", "block_assignment": [1, 0],
                        "unitaries": [matrix_to_dict(w)["blocks"][0], None]},
        }), encoding="utf-8")
        T = load_map(path)
        ref = build_star_anti_hom(AlgebraShape((2, 3)), AlgebraShape((3, 2)), [1, 0],
                                  [w.blocks()[0], None])
        assert T.action.tobytes() == ref.action.tobytes()

    def test_builder_scale_and_transpose_and_identity(self, rng):
        x = rand_contraction(rng, SH2)
        half = map_from_dict({
            "domain_shape": [2], "codomain_shape": [2],
            "builder": {"kind": "scale", "factor": [0.5, 0.0]},
        })
        np.testing.assert_allclose(half.apply(x).matrix, 0.5 * x.matrix, atol=0)
        flip = map_from_dict({
            "domain_shape": [2], "codomain_shape": [2],
            "builder": {"kind": "transpose"},
        })
        np.testing.assert_allclose(flip.apply(x).matrix, x.matrix.T, atol=0)
        ident = map_from_dict({
            "domain_shape": [2], "codomain_shape": [2],
            "builder": {"kind": "identity"},
        })
        np.testing.assert_allclose(ident.apply(x).matrix, x.matrix, atol=0)

    def test_builder_block_map_flags(self, rng):
        payload = {
            "domain_shape": [2, 2], "codomain_shape": [2, 2],
            "builder": {"kind": "block_map", "block_assignment": [0, 1],
                        "transpose_flags": [False, True]},
        }
        T = map_from_dict(payload)
        x = rand_contraction(rng, AlgebraShape((2, 2)))
        out = T.apply(x)
        np.testing.assert_allclose(out.matrix[:2, :2], x.matrix[:2, :2], atol=0)
        np.testing.assert_allclose(out.matrix[2:, 2:], x.matrix[2:, 2:].T, atol=0)

    def test_builder_sandwich(self, rng):
        u = rand_unitary(rng, SH2)
        v = rand_unitary(rng, SH2)
        payload = {
            "domain_shape": [2], "codomain_shape": [2],
            "builder": {"kind": "sandwich",
                        "u": matrix_to_dict(u), "v": matrix_to_dict(v)},
        }
        T = map_from_dict(payload)
        ref = build_sandwich(u, v)
        np.testing.assert_allclose(T.action, ref.action, atol=1e-15)


class TestMapValidation:
    def test_exactly_one_of_builder_action(self):
        base = {"domain_shape": [2], "codomain_shape": [2]}
        with pytest.raises(FileFormatError):
            map_from_dict(base)
        with pytest.raises(FileFormatError):
            map_from_dict({**base, "builder": {"kind": "transpose"},
                           "action": []})

    def test_unknown_builder_kind(self):
        with pytest.raises(FileFormatError):
            map_from_dict({"domain_shape": [2], "codomain_shape": [2],
                           "builder": {"kind": "mystery"}})

    def test_action_dimensions(self):
        with pytest.raises(FileFormatError):
            map_from_dict({"domain_shape": [2], "codomain_shape": [2],
                           "action": [[[0.0, 0.0]] * 4] * 3})

    def test_endo_builders_need_equal_shapes(self):
        with pytest.raises(FileFormatError):
            map_from_dict({"domain_shape": [2], "codomain_shape": [3],
                           "builder": {"kind": "transpose"}})

    @pytest.mark.parametrize("tag", ["star_hom", "alien"])
    def test_old_provenance_key_is_ignored(self, rng, tmp_path, tag):
        # raw-action files written before maps dropped their provenance tag
        # carry a "provenance" key; they load to the same action
        T = build_sandwich(rand_unitary(rng, SH2), rand_unitary(rng, SH2))
        payload = map_to_dict(T)
        path = tmp_path / "old.json"
        path.write_text(dumps_canonical({**payload, "provenance": tag}), encoding="utf-8")
        assert load_map(path).action.tobytes() == map_from_dict(payload).action.tobytes()

    def test_transpose_flags_validated(self):
        with pytest.raises(FileFormatError):
            map_from_dict({"domain_shape": [2], "codomain_shape": [2],
                           "builder": {"kind": "block_map",
                                       "block_assignment": [0],
                                       "transpose_flags": [1]}})
