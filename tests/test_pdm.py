import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

import pdmsi.pdm as pdm_module
import pdmsi.random as prandom
from pdmsi.channels import KrausChannel, dephasing_channel, identity_channel, unitary_channel
from pdmsi.exceptions import (
    DimensionMismatch,
    IncompleteTable,
    InvalidP,
    NonHermitian,
    NotSpatiallyIncompatible,
)
from oracles import (
    by_label,
    dict_evaluate_witness,
    dict_missing_pairs,
    dict_shots_match,
    dict_table,
    dict_table_from_csv,
    dict_table_to_csv,
    dict_witness_coefficients,
    gram_solve,
    loop_closed_form,
    partial_trace,
    schatten_norm,
)
from pdmsi.linalg import eig_hermitian, kron, project_simplex
from pdmsi.observables import PAULI_1Q, LightTouchObservable, ObservableBasis
from pdmsi.pdm import (
    NEGATIVITY_ATOL,
    PDM_ATOL,
    WITNESS_COEFF_ATOL,
    CorrelatorTable,
    Pdm,
    _expand,
    _factored_gram_solve,
    _overlaps,
    _pair_coefficients,
    _PdmStack,
    _t1_simplex_lps,
    _t_p,
    Witness,
    check_bound,
    evaluate_witness,
    exact_correlators,
    pdm_closed_form,
    pdm_from_correlators,
    si_measure,
    synthesize_witness,
)
from pdmsi.states import ket, maximally_mixed, plus_state, projector

R_BASIS_IDENTITY = np.array(
    [[1, 0, 0, 0], [0, 0, 0.5, 0], [0, 0.5, 0, 0], [0, 0, 0, 0]], dtype=complex
)
R_PLUS_DEPHASE = np.array(
    [
        [0.5, 0, 0.25, 0],
        [0, 0, 0, 0.25],
        [0.25, 0, 0, 0],
        [0, 0.25, 0, 0.5],
    ],
    dtype=complex,
)


def random_pdm(rng, dims=(2, 2)):
    if rng.random() < 0.5:
        rho = prandom.density_matrix(dims[0], rng)
        ch = prandom.channel(dims[0], dims[1], env_dim=3, rng=rng)
        return pdm_closed_form(rho, ch)
    return Pdm(prandom.unit_trace_hermitian(dims[0] * dims[1], rng), dims)


class TestClosedForm:
    def test_basis_state_identity(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        assert np.allclose(r.mat, R_BASIS_IDENTITY, atol=1e-12)
        assert r.dims == (2, 2)

    def test_plus_state_dephasing(self):
        r = pdm_closed_form(plus_state(), dephasing_channel(2))
        assert np.allclose(r.mat, R_PLUS_DEPHASE, atol=1e-12)

    def test_maximally_mixed_gives_half_jamiolkowski(self):
        rng = np.random.default_rng(3)
        ch = prandom.channel(2, 2, env_dim=3, rng=rng)
        r = pdm_closed_form(maximally_mixed(2), ch)
        assert np.allclose(r.mat, ch.jamiolkowski() / 2, atol=1e-12)

    def test_first_marginal_is_input_state(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            rho = prandom.density_matrix(2, rng)
            ch = prandom.channel(2, 3, env_dim=3, rng=rng)
            r = pdm_closed_form(rho, ch)
            assert np.allclose(partial_trace(r.mat, r.dims, 0), rho, atol=1e-10)

    def test_dimension_guard(self):
        with pytest.raises(DimensionMismatch):
            pdm_closed_form(maximally_mixed(3), identity_channel(2))

    def test_rejects_invalid_state(self):
        with pytest.raises(ValueError):
            pdm_closed_form(np.eye(2, dtype=complex), identity_channel(2))

    @pytest.mark.parametrize("dims, error", [((-2, -2), ValueError), ((0, 4), ValueError),
                                             ((True, 4), TypeError), ((4.0, 1), TypeError)])
    def test_rejects_dims_that_are_not_positive_integers(self, dims, error):
        with pytest.raises(error, match="dims must be"):
            Pdm(np.eye(4) / 4, dims)

    def test_numpy_integer_dims_are_plain_ints(self):
        r = Pdm(np.eye(6) / 6, (np.int64(2), np.int32(3)))
        assert r.dims == (2, 3) and all(type(d) is int for d in r.dims)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dims=st.sampled_from([(1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 3)]),
       env=st.integers(1, 5), stack=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_jamiolkowski_route_matches_kraus_loop(dims, env, stack, seed):
    """``pdm_closed_form`` (the cached J) and ``_PdmStack.closed_form`` (a J stack) against the
    closed form the oracle builds from the Kraus operators, one block outer product at a time."""
    d_in, d_out = dims
    rng = np.random.default_rng(seed)
    chs = [prandom.channel(d_in, d_out, env_dim=max(env, -(-d_in // d_out)), rng=rng) for _ in range(stack)]
    rhos = [prandom.density_matrix(d_in, rng) for _ in range(stack)]
    want = np.array([loop_closed_form(rho, ch.kraus_ops) for rho, ch in zip(rhos, chs)])
    got = _PdmStack.closed_form(np.array(rhos), np.array([ch.jamiolkowski() for ch in chs]))
    assert got.dims == dims and np.max(np.abs(got.mats - want)) <= 1e-13
    for rho, ch, r in zip(rhos, chs, want):
        assert np.max(np.abs(pdm_closed_form(rho, ch).mat - r)) <= 1e-13


class TestCorrelators:
    def test_maximally_mixed_pdm_table(self):
        r = Pdm(np.eye(4, dtype=complex) / 4, (2, 2))
        table = exact_correlators(r)
        for (a, b), value in table.entries.items():
            expected = 1.0 if (a, b) == ("I", "I") else 0.0
            assert abs(value - expected) < 1e-12

    def test_identity_example_entries(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        table = exact_correlators(r)
        nonzero = {("I", "I"), ("X", "X"), ("Y", "Y"), ("Z", "Z"), ("I", "Z"), ("Z", "I")}
        for key, value in table.entries.items():
            assert abs(value - (1.0 if key in nonzero else 0.0)) < 1e-12

    def test_plus_dephase_xx_vanishes(self):
        r = pdm_closed_form(plus_state(), dephasing_channel(2))
        table = exact_correlators(r)
        assert abs(table.entries[("X", "X")]) < 1e-12
        assert abs(table.entries[("X", "I")] - 1.0) < 1e-12

    def test_reconstruction_from_sparse_table(self):
        basis = ObservableBasis.pauli(1)
        entries = {(a, b): 0.0 for a in basis.labels for b in basis.labels}
        entries[("I", "I")] = 1.0
        r = pdm_from_correlators(dict_table(basis, basis, entries))
        assert np.allclose(r.mat, np.eye(4) / 4, atol=1e-12)

    def test_reconstruction_of_identity_example(self):
        basis = ObservableBasis.pauli(1)
        entries = {(a, b): 0.0 for a in basis.labels for b in basis.labels}
        for key in [("I", "I"), ("X", "X"), ("Y", "Y"), ("Z", "Z"), ("I", "Z"), ("Z", "I")]:
            entries[key] = 1.0
        r = pdm_from_correlators(dict_table(basis, basis, entries))
        assert np.allclose(r.mat, R_BASIS_IDENTITY, atol=1e-12)

    def test_round_trip_pauli(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            r = random_pdm(rng)
            back = pdm_from_correlators(exact_correlators(r))
            assert np.max(np.abs(back.mat - r.mat)) < 1e-10

    def test_round_trip_light_touch(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            r = random_pdm(rng, dims=(3, 3))
            back = pdm_from_correlators(exact_correlators(r))
            assert np.max(np.abs(back.mat - r.mat)) < 1e-9

    def test_incomplete_table_lists_missing(self):
        basis = ObservableBasis.pauli(1)
        entries = {("I", "I"): 1.0}
        with pytest.raises(IncompleteTable) as err:
            pdm_from_correlators(dict_table(basis, basis, entries))
        assert ("X", "X") in err.value.missing

    def test_csv_round_trip(self):
        rng = np.random.default_rng(13)
        table = exact_correlators(random_pdm(rng))
        basis = table.basis1
        back = CorrelatorTable.from_csv(table.to_csv(), basis, basis)
        assert back.entries == pytest.approx(table.entries)

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_csv_rejects_non_finite_value(self, value):
        basis = ObservableBasis.pauli(1)
        with pytest.raises(ValueError, match=r"row 2 \(I,X\).*not finite"):
            CorrelatorTable.from_csv(f"label1,label2,value,shots\nI,I,1,\nI,X,{value},\n", basis)

    def test_csv_rejects_duplicate_pair(self):
        basis = ObservableBasis.pauli(1)
        with pytest.raises(ValueError, match=r"row 3 \(I,X\).*twice"):
            CorrelatorTable.from_csv("label1,label2,value,shots\nI,X,0.5,\nI,I,1,\nI,X,0.25,\n", basis)

    @pytest.mark.parametrize("row, message", [
        ("I,I,1_0,+1_000", r"row 2 \(I,I\): value '1_0' is not a plain decimal number"),
        ("I,I,\u0661\u0660,\u0665", "row 2 \\(I,I\\): value '\u0661\u0660' is not a plain decimal number"),
        ("I,I,+0.5,", r"row 2 \(I,I\): value '\+0.5' is not a plain decimal number"),
        ("I,I,1E5,", r"row 2 \(I,I\): value '1E5' is not a plain decimal number"),
        ("I,I,1,+1_000", r"row 2 \(I,I\): shot count '\+1_000' is not plain decimal digits"),
        ("I,I,1,1_000", r"row 2 \(I,I\): shot count '1_000' is not plain decimal digits"),
        ("I,I,1,\u0665", "row 2 \\(I,I\\): shot count '\u0665' is not plain decimal digits"),
        ("I,I,1,-0", r"row 2 \(I,I\): shot count '-0' is not plain decimal digits"),
    ])
    def test_csv_rejects_numbers_no_writer_produces(self, row, message):
        # float() and int() read each of these cells (1_0 as 10.0, an Arabic-Indic ten as 10.0).
        basis = ObservableBasis.pauli(1)
        with pytest.raises(ValueError, match=message):
            CorrelatorTable.from_csv(f"label1,label2,value,shots\nI,X,0.5,3\n{row}\n", basis)

    @pytest.mark.parametrize("rows, message", [
        ("I,X,0.5,3\nI,I,abc,3", r"^CSV row 2 \(I,I\): value 'abc' is not a plain decimal number$"),
        ("I,X,0.5,3\nI,I, ,3", r"^CSV row 2 \(I,I\): value '' is not a plain decimal number$"),
        ("I,X,0.5,\nI,I,1 2,", r"^CSV row 2 \(I,I\): value '1 2' is not a plain decimal number$"),
        ("I,X,0.5,3\nI,I,1.0,x", r"^CSV row 2 \(I,I\): shot count 'x' is not plain decimal digits$"),
        ("I,X,0.5,\nI,I,1.0,x", r"^CSV row 2 \(I,I\): shot count 'x' is not plain decimal digits$"),
        ("I,X,0.5,1 2\nI,I,1.0,3", r"^CSV row 1 \(I,X\): shot count '1 2' is not plain decimal digits$"),
        # A value is read before the labels are looked up, as before.
        ("I,X,abc,\nQ9,I,1.0,", r"^CSV row 1 \(I,X\): value 'abc' is not a plain decimal number$"),
    ])
    def test_csv_names_the_row_of_a_cell_float_or_int_cannot_read(self, rows, message):
        with pytest.raises(ValueError, match=message):
            CorrelatorTable.from_csv(f"label1,label2,value,shots\n{rows}\n", ObservableBasis.pauli(1))

    def test_csv_reads_every_form_the_writer_produces(self):
        basis = ObservableBasis.pauli(1)
        text = "label1,label2,value,shots\nI,I,1e+25,0\nI,X, -1.5e-07\t,\t12 \nX,X,-0,\n"
        table = CorrelatorTable.from_csv(text, basis)
        assert table.entries == {("I", "I"): 1e25, ("I", "X"): -1.5e-07, ("X", "X"): 0.0}
        assert table.shots[0, :2].tolist() == [0, 12]

    def test_csv_rejects_negative_shots(self):
        basis = ObservableBasis.pauli(1)
        with pytest.raises(ValueError, match=r"row 1 \(I,X\).*-5 is negative"):
            CorrelatorTable.from_csv("label1,label2,value,shots\nI,X,0.5,-5\n", basis)

    def test_shot_count_above_int64_rejected_naming_the_row_or_pair(self):
        basis = ObservableBasis.pauli(1)
        with pytest.raises(ValueError, match=rf"row 2 \(I,X\).*{2**63} is above {2**63 - 1}"):
            CorrelatorTable.from_csv(f"label1,label2,value,shots\nI,I,1,3\nI,X,0.5,{2**63}\n", basis)
        with pytest.raises(ValueError, match=rf"row 1 \(I,X\).*{2**70} is above"):
            CorrelatorTable.from_csv(f"label1,label2,value,shots\nI,X,0.5,{2**70}\nI,I,1,\n", basis)
        shots = np.zeros((4, 4), dtype=np.uint64)
        shots[0, 1] = 2**63
        with pytest.raises(ValueError, match=rf"shot count of \(I,X\): shot count {2**63} is above"):
            CorrelatorTable(basis, basis, np.zeros((4, 4)), shots)

    def test_shot_count_at_int64_max_round_trips(self):
        basis, top = ObservableBasis.pauli(1), 2**63 - 1
        table = dict_table(basis, basis, {("I", "I"): 1.0, ("I", "X"): 0.5}, {("I", "X"): top})
        assert dict_shots_match(table, {("I", "X"): top})
        text = table.to_csv()
        assert text == f"label1,label2,value,shots\nI,I,1,\nI,X,0.5,{top}\n"
        back = CorrelatorTable.from_csv(text, basis)
        assert dict_shots_match(back, {("I", "X"): top}) and back.to_csv() == text

    def test_plain_digit_count_past_int_digit_limit_is_above_int64(self):
        # int() refuses a string of more than 4,300 digits; such a count is plain digits all the same.
        basis, nines = ObservableBasis.pauli(1), "9" * 4301
        with pytest.raises(ValueError, match=rf"^CSV row 2 \(I,X\): shot count {nines} is above {2**63 - 1}$"):
            CorrelatorTable.from_csv(f"label1,label2,value,shots\nI,I,1,3\nI,X,0.5,{nines}\n", basis)
        # The range check still comes before the plain-digits check of another row, as for a short count.
        with pytest.raises(ValueError, match=r"row 2 \(I,X\): shot count 9{4301} is above"):
            CorrelatorTable.from_csv(f"label1,label2,value,shots\nI,I,1,1_0\nI,X,0.5,{nines}\n", basis)

    @pytest.mark.parametrize("count, shots", [
        pytest.param("0" * 4301 + "5", 5, id="zeros-then-5"),
        pytest.param("0" * 4301, 0, id="zeros"),
        pytest.param("0" * 30 + str(2**63 - 1), 2**63 - 1, id="zeros-then-int64-max"),
    ])
    def test_leading_zeros_do_not_count_toward_a_count_length(self, count, shots):
        table = CorrelatorTable.from_csv(f"label1,label2,value,shots\nI,X,0.5,{count}\n", ObservableBasis.pauli(1))
        assert int(table.shots[0, 1]) == shots

    def test_zero_padded_count_above_int64_shows_its_digits(self):
        count = "0" * 4301 + str(2**63)
        with pytest.raises(ValueError, match=rf"^CSV row 1 \(I,X\): shot count {2**63} is above {2**63 - 1}$"):
            CorrelatorTable.from_csv(f"label1,label2,value,shots\nI,X,0.5,{count}\n", ObservableBasis.pauli(1))

    def test_csv_names_first_row_of_wrong_width(self):
        # 4 + 3 + 5 data cells: a multiple of 4, so only a per-row count finds the short row.
        basis = ObservableBasis.pauli(1)
        with pytest.raises(ValueError, match=r"^CSV row 2 has 3 cells, expected 4: 'I,X,0.5'$"):
            CorrelatorTable.from_csv("label1,label2,value,shots\nI,I,1,\nI,X,0.5\nX,X,0.25,3,\n", basis)

    def test_csv_crlf_reads_as_lf(self):
        table = exact_correlators(random_pdm(np.random.default_rng(17)))
        shots = np.arange(table.values.size).reshape(table.values.shape)
        shots[0, 1] = -1
        table = CorrelatorTable(table.basis1, table.basis2, table.values, shots)
        text = table.to_csv()
        lf = CorrelatorTable.from_csv(text, table.basis1)
        crlf = CorrelatorTable.from_csv(text.replace("\n", "\r\n"), table.basis1)
        assert np.array_equal(crlf.values, lf.values) and np.array_equal(crlf.shots, lf.shots)
        assert crlf.to_csv() == lf.to_csv() == text

    def test_csv_header_only_is_all_missing(self):
        basis = ObservableBasis.pauli(1)
        table = CorrelatorTable.from_csv("label1,label2,value,shots\n", basis)
        assert np.isnan(table.values).all() and table.shots is None
        assert table.missing_pairs() == [(a, b) for a in basis.labels for b in basis.labels]
        assert table.to_csv() == "label1,label2,value,shots\n"

    def test_csv_escapes_format_characters_in_labels(self):
        # A label left unescaped in the writer's % template would consume or misread a value.
        labels = ["100%", "%s", "{x}", "%(k)s}"]
        basis = ObservableBasis([LightTouchObservable(PAULI_1Q[p], label) for p, label in zip("IXYZ", labels)],
                                "escaped")
        rng = np.random.default_rng(19)
        entries = {(a, b): float(rng.normal()) for a in labels for b in labels if rng.random() < 0.7}
        shots = {key: int(rng.integers(0, 1000)) for key in entries if rng.random() < 0.7}
        table = dict_table(basis, basis, entries, shots)
        text = table.to_csv()
        assert text == dict_table_to_csv(basis, basis, entries, shots)
        back = CorrelatorTable.from_csv(text, basis)
        assert back.entries == entries and dict_shots_match(back, shots)

    @pytest.mark.parametrize("values, message", [
        (np.full((4, 4), True), "dtype bool"),
        (np.full((4, 4), 0.5 + 0j), "dtype complex128"),
        (np.full((4, 4), 0.5, dtype=object), "dtype object"),
        (np.full((4, 4), "0.5"), "dtype <U3"),
    ], ids=["bool", "complex", "object", "str"])
    def test_constructor_rejects_non_real_values(self, values, message):
        # Complex is refused before any cast, so no ComplexWarning drops the imaginary part.
        basis = ObservableBasis.pauli(1)
        with pytest.raises(TypeError, match=f"values must be real numbers, got {message}"):
            CorrelatorTable(basis, basis, values)

    @pytest.mark.parametrize("shots, message", [
        (np.full((4, 4), 2.0), "dtype float64"),
        (np.full((4, 4), True), "dtype bool"),
        (np.full((4, 4), "3"), "dtype <U1"),
        (np.full((4, 4), 3, dtype=object), "dtype object"),
    ], ids=["float", "bool", "str", "object"])
    def test_constructor_rejects_non_integer_shots(self, shots, message):
        basis = ObservableBasis.pauli(1)
        with pytest.raises(TypeError, match=f"shots must be integers, got {message}"):
            CorrelatorTable(basis, basis, np.zeros((4, 4)), shots)

    def test_constructor_rejects_infinite_value_naming_the_pair(self):
        basis = ObservableBasis.pauli(1)
        values = np.full((4, 4), np.nan)
        values[2, 3] = -np.inf
        with pytest.raises(ValueError, match=r"^entry \(Y,Z\): value -inf is not finite$"):
            CorrelatorTable(basis, basis, values)
        values[2, 3] = 0.5
        assert CorrelatorTable(basis, basis, values).entries == {("Y", "Z"): 0.5}

    def test_constructor_rejects_count_below_minus_one_naming_the_pair(self):
        basis = ObservableBasis.pauli(1)
        shots = np.full((4, 4), -1)
        assert CorrelatorTable(basis, basis, np.zeros((4, 4)), shots).to_csv().count(",\n") == 16
        shots[3, 0] = -2
        with pytest.raises(ValueError, match=r"^shot count of \(Z,I\): shot count -2 is below -1$"):
            CorrelatorTable(basis, basis, np.zeros((4, 4)), shots)

    @pytest.mark.parametrize("shape, shots_shape", [((4, 3), None), ((3, 4), None), ((16,), None),
                                                    ((4, 4), (4, 3)), ((4, 4), (1, 4, 4))])
    def test_constructor_rejects_arrays_off_the_grid(self, shape, shots_shape):
        basis = ObservableBasis.pauli(1)
        shots = None if shots_shape is None else np.zeros(shots_shape, dtype=int)
        with pytest.raises(DimensionMismatch, match=r"of shape .* do not match the bases' grid \(4, 4\)"):
            CorrelatorTable(basis, basis, np.zeros(shape), shots)

    def test_constructor_copies_any_real_and_integer_dtype(self):
        basis = ObservableBasis.pauli(1)
        values = np.full((4, 4), np.nan, dtype=np.float32)
        values[0, :2] = 0.5, 1
        shots = np.full((4, 4), -1, dtype=np.int8)
        shots[0, :2] = 7, 3
        table = CorrelatorTable(basis, basis, values, shots)
        assert table.to_csv() == "label1,label2,value,shots\nI,I,0.5,7\nI,X,1,3\n"
        assert table.values.dtype == np.float64 and table.shots.dtype == np.int64
        assert not table.values.flags.writeable and not table.shots.flags.writeable
        ints = np.zeros((4, 4), dtype=np.int64)
        owned = CorrelatorTable(basis, basis, ints, np.zeros((4, 4), dtype=np.uint64))
        ints[0, 0] = 9
        assert owned.values[0, 0] == 0.0 and owned.values.dtype == np.float64
        top = np.zeros((4, 4), dtype=np.uint64)
        top[1, 1] = 2**63 - 1
        assert CorrelatorTable(basis, basis, ints, top).shots[1, 1] == 2**63 - 1

    def test_non_finite_matrix_is_not_a_pdm(self):
        for bad in (np.nan, np.inf):
            m = np.eye(4, dtype=complex) / 4
            m[1, 2] = m[2, 1] = bad
            with pytest.raises(ValueError, match="non-finite"):
                Pdm(m, (2, 2))
            with pytest.raises(ValueError, match="non-finite"):
                _PdmStack(np.diag([bad, 0.0]), (2, 1))


class TestSiMeasure:
    def test_trace_norm_value_identity_example(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        rep = si_measure(r, 1.0)
        assert abs(rep.value - 1.0) < 1e-9
        assert len(rep.negative_eigenvalues) == 1
        assert abs(rep.negative_eigenvalues[0] + 0.5) < 1e-10
        assert r.eig.eigenvalues[0] == rep.negative_eigenvalues[0]
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert abs(abs(r.eig.eigenvectors[:, 0] @ singlet)) > 1 - 1e-9

    def test_plus_dephase_value(self):
        r = pdm_closed_form(plus_state(), dephasing_channel(2))
        assert abs(si_measure(r, 1.0).value - (np.sqrt(2) - 1)) < 1e-9

    def test_density_matrix_gives_zero(self):
        rng = np.random.default_rng(17)
        for p in [1.0, 1.5, 2.0, 3.0]:
            rho = prandom.density_matrix(4, rng)
            rep = si_measure(Pdm(rho, (2, 2)), p)
            assert rep.value == 0.0

    def test_p2_identity_example(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        rep = si_measure(r, 2.0)
        assert abs(rep.value - np.sqrt(0.375)) < 1e-12
        assert np.allclose(np.linalg.eigvalsh(rep.minimizer), [0, 0, 0.25, 0.75], atol=1e-10)

    @pytest.mark.parametrize("p", [1e4, 1e300])
    def test_large_p_does_not_underflow(self, p):
        # The gap lam - q has magnitudes (1/4, 1/4, 0, 1/2), so T_p falls to max|gap| = 1/2 as p grows.
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        values = [si_measure(r, order).value for order in (2.0, 10.0, 100.0, 1000.0, p)]
        assert values[-1] == 0.5
        assert all(later <= earlier for earlier, later in zip(values, values[1:]))

    def test_minimizer_is_density_matrix_achieving_value(self):
        rng = np.random.default_rng(19)
        for p in [1.0, 2.0]:
            for _ in range(20):
                r = random_pdm(rng)
                rep = si_measure(r, p)
                assert abs(np.trace(rep.minimizer).real - 1.0) < 1e-9
                assert np.linalg.eigvalsh(rep.minimizer)[0] > -1e-9
                assert abs(schatten_norm(r.mat - rep.minimizer, p) - rep.value) < 1e-7

    def test_no_random_density_matrix_beats_minimizer(self):
        rng = np.random.default_rng(23)
        for p in [1.0, 2.0]:
            r = random_pdm(rng)
            rep = si_measure(r, p)
            for _ in range(300):
                rho = prandom.density_matrix(4, rng)
                assert schatten_norm(r.mat - rho, p) >= rep.value - 1e-9

    def test_closed_form_matches_numeric(self):
        rng = np.random.default_rng(29)
        pdms = [random_pdm(rng) for _ in range(50)]
        closed = np.array([si_measure(r, 1.0).value for r in pdms])
        numeric = _t1_simplex_lps(np.array([r.eig.eigenvalues for r in pdms]))[0]
        assert np.all(np.abs(closed - numeric) < 1e-7)

    def test_general_p_sandwich(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            r = random_pdm(rng)
            t1 = si_measure(r, 1.0).value
            t15 = si_measure(r, 1.5).value
            t2 = si_measure(r, 2.0).value
            assert t2 - 1e-6 <= t15 <= t1 + 1e-6

    def test_invalid_p(self):
        r = Pdm(np.eye(4, dtype=complex) / 4, (2, 2))
        for p in [0.5, 0, -1, np.inf, np.nan, True, 1 + 0j, "2"]:
            with pytest.raises(InvalidP):
                si_measure(r, p)

    def test_ndarray_rejected(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        for p in [1.0, 3.0]:
            with pytest.raises(TypeError, match="ndarray"):
                si_measure(r.mat, p)

    @pytest.mark.parametrize("p", [1.3, 1.5, 3.0, 5.0, 10.0])
    def test_general_p_matches_slsqp(self, p):
        """Independent solve of min ||lam - q||_p over the simplex, started at uniform q."""
        rng = np.random.default_rng(37)
        for dims in [(2, 2), (3, 3), (2, 3)]:
            for _ in range(10):
                r = random_pdm(rng, dims)
                lam = np.linalg.eigvalsh(r.mat)
                n = len(lam)

                def norm(q):
                    return np.sum(np.abs(lam - q) ** p) ** (1.0 / p)

                def grad(q):
                    d = lam - q
                    return -np.sign(d) * (np.abs(d) / norm(q)) ** (p - 1.0)

                res = scipy.optimize.minimize(
                    norm, np.full(n, 1.0 / n), jac=grad, method="SLSQP", bounds=[(0.0, 1.0)] * n,
                    constraints=[{"type": "eq", "fun": lambda q: np.sum(q) - 1.0,
                                  "jac": lambda q: np.ones(n)}],
                    options={"ftol": 1e-14, "maxiter": 1000},
                )
                assert res.success, res.message
                assert abs(si_measure(r, p).value - res.fun) < 1e-6


def eager_minimizer(r, p):
    """The minimizer as si_measure built it for every call before it was computed on read."""
    lam, v = r.eig.eigenvalues, r.eig.eigenvectors
    if p == 1.0:
        q = np.maximum(lam, 0.0)
        q = q / q.sum(axis=-1, keepdims=True)
    else:
        q = project_simplex(lam)
    minimizer = (v * q) @ v.conj().T
    return (minimizer + minimizer.conj().T) / 2.0


class _EigenvaluesOnly:
    """An ``eig`` whose eigenvectors raise when read."""

    def __init__(self, eig):
        self.eigenvalues = eig.eigenvalues

    @property
    def eigenvectors(self):
        raise AssertionError("eigenvectors were read")


class TestLazyMinimizer:
    """``SiReport.minimizer`` is built from the measured Pdm on first read, bit for bit as before."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_bits_match_the_eager_formula(self, p):
        rng = np.random.default_rng(89)
        degenerate = [np.diag(lam).astype(complex) for lam in
                      ([-0.25, -0.25, 0.75, 0.75], [0.25] * 4, [-0.5, 0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0])]
        u = prandom.haar_unitary(4, rng)
        pdms = [random_pdm(rng, dims) for dims in [(2, 2), (2, 3), (3, 2), (3, 3)] for _ in range(5)]
        pdms += [Pdm(m, (2, 2)) for m in degenerate + [u @ m @ u.conj().T for m in degenerate]]
        stack = _PdmStack(np.array([random_pdm(rng, (2, 3)).mat for _ in range(5)]), (2, 3))
        pdms += [stack[k] for k in range(5)]
        pdms.append(pdm_closed_form(projector(ket(0)), identity_channel(2)))
        for r in pdms:
            rep = si_measure(r, p)
            assert rep.minimizer is rep.minimizer and not rep.minimizer.flags.writeable
            assert np.array_equal(rep.minimizer, eager_minimizer(r, p))

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_value_reads_no_eigenvectors(self, p):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        want = si_measure(r, p)
        r = Pdm(r.mat, r.dims)
        r.eig = _EigenvaluesOnly(r.eig)
        rep = si_measure(r, p)
        assert (rep.p, rep.value, rep.negative_eigenvalues) == (want.p, want.value, want.negative_eigenvalues)
        with pytest.raises(AssertionError, match="eigenvectors were read"):
            rep.minimizer

    def test_to_dict_holds_the_four_fields(self):
        r = pdm_closed_form(plus_state(), dephasing_channel(2))
        rep = si_measure(r, 2.0)
        d = rep.to_dict()
        assert sorted(d) == ["minimizer", "negative_eigenvalues", "p", "value"]
        assert d["minimizer"] is rep.minimizer and (d["p"], d["value"]) == (2.0, rep.value)
        lam = r.eig.eigenvalues
        assert d["negative_eigenvalues"] == rep.negative_eigenvalues == lam[lam < -NEGATIVITY_ATOL].tolist()


class TestWitness:
    def test_identity_example_witness(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        w = synthesize_witness(r)
        singlet = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        assert np.allclose(w.mat, np.outer(singlet, singlet.conj()), atol=1e-10)
        assert abs(w.expectation(r) + 0.5) < 1e-10
        expected = {("I", "I"): 0.25, ("X", "X"): -0.25, ("Y", "Y"): -0.25, ("Z", "Z"): -0.25}
        coeffs = by_label(w.coefficients, w.basis1, w.basis2)
        for key, value in expected.items():
            assert abs(coeffs[key] - value) < 1e-10
        other = sum(abs(v) for k, v in coeffs.items() if k not in expected)
        assert other < 1e-10

    def test_repr_computes_no_coefficient(self):
        w = synthesize_witness(pdm_closed_form(projector(ket(0, 4)), identity_channel(4)))
        assert repr(w) == "Witness(dim=16, 256 coefficients)"
        assert "coefficients" not in w.__dict__

    def test_expectation_checks_factor_dims(self):
        # Same total size, factors swapped: the (2, 3) witness has no meaning on a (3, 2) PDM.
        r = pdm_closed_form(np.diag([0.5, 0.3, 0.2]), dephasing_channel(3))
        w = synthesize_witness(pdm_closed_form(projector(ket(0)), identity_channel(2)))
        w23 = Witness(np.eye(6) / 6, ObservableBasis.default_for_dim(2), ObservableBasis.default_for_dim(3))
        with pytest.raises(DimensionMismatch, match=r"PDM of dims \(3, 3\) does not match bases of dims 2x2"):
            w.expectation(r)
        with pytest.raises(DimensionMismatch, match=r"\(3, 2\)"):
            w23.expectation(Pdm(np.eye(6) / 6, (3, 2)))
        assert w23.expectation(Pdm(np.eye(6) / 6, (2, 3))) == pytest.approx(1 / 6)

    def test_coefficients_reconstruct_matrix(self):
        rng = np.random.default_rng(37)
        for dims in [(2, 2), (3, 3)]:
            r = random_pdm(rng, dims)
            if r.min_eigenvalue() >= -1e-10:
                continue
            w = synthesize_witness(r)
            recon = sum(
                c * kron(w.basis1.matrix(a), w.basis2.matrix(b))
                for (a, b), c in by_label(w.coefficients, w.basis1, w.basis2).items()
            )
            assert np.max(np.abs(recon - w.mat)) < 1e-10

    def test_policies(self):
        # diag(p) through the identity has eigenvalues +-(p_i + p_j)/2, i < j: here -0.45 < -0.35 < -0.2.
        r = pdm_closed_form(np.diag([0.6, 0.3, 0.1]), identity_channel(3))
        full = synthesize_witness(r, policy="negative_eigenspace")
        single = synthesize_witness(r, policy="most_negative")
        assert abs(np.trace(full.mat).real - 3.0) < 1e-9
        assert abs(np.trace(single.mat).real - 1.0) < 1e-9
        assert abs(single.expectation(r) + 0.45) < 1e-12
        assert full.expectation(r) < single.expectation(r) < 0

    def test_most_negative_takes_a_degenerate_minimum_whole(self):
        # |+> through dephasing: both negative eigenvalues are -1/4, so the two policies agree.
        r = pdm_closed_form(plus_state(), dephasing_channel(2))
        full = synthesize_witness(r, policy="negative_eigenspace")
        group = synthesize_witness(r, policy="most_negative")
        assert abs(np.trace(group.mat).real - 2.0) < 1e-9
        assert np.max(np.abs(group.mat - full.mat)) < 1e-12

    def test_most_negative_is_covariant_under_relabelling(self):
        # |0> through identity(3) has -1/2 twice; relabelling basis states 1 and 2 maps the PDM to
        # (P (x) P) R (P (x) P)^T, and the witness must follow it whichever eigenbasis eigh returns.
        perm = np.eye(3)[[0, 2, 1]]
        pp = np.kron(perm, perm)
        rho = projector(ket(0, 3))
        w = synthesize_witness(pdm_closed_form(rho, identity_channel(3)), policy="most_negative")
        relabelled = synthesize_witness(pdm_closed_form(perm @ rho @ perm.T, identity_channel(3)),
                                        policy="most_negative")
        assert np.max(np.abs(pp @ w.mat @ pp.T - relabelled.mat)) <= 1e-12
        assert abs(np.trace(w.mat).real - 2.0) < 1e-12

    def test_user_witness_validation(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        good = synthesize_witness(r)
        w = Witness(good.mat, good.basis1, good.basis2)
        assert abs(w.expectation(r) + 0.5) < 1e-10
        assert np.array_equal(w.coefficients, good.coefficients)
        assert Witness(np.eye(4) / 4, good.basis1, good.basis2).expectation(r) >= 0.0
        with pytest.raises(ValueError, match="positive semidefinite"):
            Witness(-good.mat, good.basis1, good.basis2)
        with pytest.raises(NonHermitian):
            Witness(np.triu(np.ones((4, 4))), good.basis1, good.basis2)

    def test_policy_checked_before_the_spectrum(self):
        for r in (Pdm(np.eye(4, dtype=complex) / 4, (2, 2)), pdm_closed_form(projector(ket(0)), identity_channel(2))):
            for bad in ("bogus", "custom"):
                with pytest.raises(ValueError, match=f"unknown witness policy '{bad}'"):
                    synthesize_witness(r, policy=bad)

    def test_rejects_density_matrix(self):
        with pytest.raises(NotSpatiallyIncompatible):
            synthesize_witness(Pdm(np.eye(4, dtype=complex) / 4, (2, 2)))

    def test_soundness_on_random_states(self):
        rng = np.random.default_rng(41)
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        w = synthesize_witness(r)
        for _ in range(200):
            rho = prandom.density_matrix(4, rng)
            assert np.trace(w.mat @ rho).real > -1e-10

    def test_evaluate_from_exact_table(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        w = synthesize_witness(r)
        value = evaluate_witness(w, exact_correlators(r))
        assert abs(value + 0.5) < 1e-10

    def test_evaluate_nonnegative_on_state_tables(self):
        rng = np.random.default_rng(43)
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        w = synthesize_witness(r)
        for _ in range(20):
            rho = Pdm(prandom.density_matrix(4, rng), (2, 2))
            assert evaluate_witness(w, exact_correlators(rho)) > -1e-9

    def test_evaluate_missing_entries(self):
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        w = synthesize_witness(r)
        basis = ObservableBasis.pauli(1)
        partial = dict_table(basis, basis, {("I", "I"): 1.0})
        with pytest.raises(IncompleteTable):
            evaluate_witness(w, partial)

    def test_evaluate_compares_basis_content_not_labels(self):
        # The singlet witness over pauli:1; a table over I, X, Y, Z labels of 2 * sigma would read -2.0.
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        w = synthesize_witness(r)
        assert abs(evaluate_witness(w, exact_correlators(r, ObservableBasis.light_touch(2))) + 0.5) < 1e-12
        doubled = ObservableBasis([LightTouchObservable(2 * PAULI_1Q[c], c) for c in "IXYZ"], "doubled")
        for basis in (doubled, (ObservableBasis.pauli(1), doubled), (doubled, ObservableBasis.pauli(1))):
            with pytest.raises(DimensionMismatch, match="different bases"):
                evaluate_witness(w, exact_correlators(r, basis))

    def test_evaluate_from_sampled_table(self):
        from pdmsi.sampling import sample_table

        # Identity example: every contributing pair samples deterministically
        # (entries are exactly +/-1), so the estimate has zero shot noise.
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        w = synthesize_witness(r)
        table = sample_table(projector(ket(0)), identity_channel(2),
                             ObservableBasis.pauli(1), 100_000, seed=71)
        contributing = [k for k, c in by_label(w.coefficients, w.basis1, w.basis2).items() if abs(c) > 1e-12]
        assert all(table.entries[k] == 1.0 for k in contributing)
        assert abs(evaluate_witness(w, table) + 0.5) < 1e-12

        # Dephasing example: genuinely noisy entries, band from binomial variance.
        r2 = pdm_closed_form(plus_state(), dephasing_channel(2))
        w2 = synthesize_witness(r2)
        exact = evaluate_witness(w2, exact_correlators(r2))
        shots = 100_000
        table2 = sample_table(plus_state(), dephasing_channel(2),
                              ObservableBasis.pauli(1), shots, seed=73)
        estimate = evaluate_witness(w2, table2)
        band = 3.0 * np.sqrt(sum(c**2 for c in w2.coefficients.ravel().tolist()) / shots)
        assert abs(estimate - exact) <= band + 1e-12

    def test_witness_exists_for_qutrit_pdm(self):
        rho = projector(ket(0, 3))
        r = pdm_closed_form(rho, identity_channel(3))
        w = synthesize_witness(r)
        assert w.basis1.descriptor == "light_touch:3"
        assert w.expectation(r) < -1e-6
        recon = sum(
            c * kron(w.basis1.matrix(a), w.basis2.matrix(b))
            for (a, b), c in by_label(w.coefficients, w.basis1, w.basis2).items()
        )
        assert np.max(np.abs(recon - w.mat)) < 1e-10
        assert abs(evaluate_witness(w, exact_correlators(r)) - w.expectation(r)) < 1e-9


class TestBound:
    def test_saturation_at_pure_identity(self):
        res = check_bound(projector(ket(0)), identity_channel(2))
        assert abs(res.t1 - 1.0) < 1e-9
        assert abs(res.reference - 1.0) < 1e-9
        assert res.bound_ok

    def test_maximally_mixed_identity(self):
        res = check_bound(maximally_mixed(2), identity_channel(2))
        assert abs(res.t1 - 1.0) < 1e-9
        assert res.bound_ok

    def test_random_sweep(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            rho = prandom.density_matrix(2, rng)
            ch = prandom.channel(2, 2, env_dim=4, rng=rng)
            assert check_bound(rho, ch).bound_ok

    def test_unitary_invariance_of_t1(self):
        rng = np.random.default_rng(53)
        rho = prandom.density_matrix(2, rng)
        base = si_measure(pdm_closed_form(rho, identity_channel(2)), 1.0).value
        for _ in range(10):
            u = prandom.haar_unitary(2, rng)
            value = si_measure(pdm_closed_form(rho, unitary_channel(u)), 1.0).value
            assert abs(value - base) < 1e-9


    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_reference_is_closed_form(self, d):
        rho, ch = projector(ket(0, d)), identity_channel(d)
        assert check_bound(rho, ch).reference == d - 1
        assert abs(si_measure(pdm_closed_form(rho, ch), 1.0).value - (d - 1)) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_spectrum_only_t1_matches_si_measure(self, d):
        """The bound's T_1 (from the pair's ``Pdm.eig``) against si_measure's on that Pdm and against
        the stacked spectrum route (``_PdmStack.t_p``, eigvalsh): random mixed states through random
        channels, and pure states through Haar unitaries, which saturate the bound."""
        rng = np.random.default_rng(70 + d)
        pairs = [(prandom.density_matrix(d, rng), prandom.channel(d, d, env_dim=1 + k % 4, rng=rng))
                 for k in range(40)]
        pairs += [(projector(prandom.pure_state(d, rng)), unitary_channel(prandom.haar_unitary(d, rng)))
                  for _ in range(10)]
        for k, (rho, ch) in enumerate(pairs):
            res = check_bound(rho, ch)
            t1 = si_measure(pdm_closed_form(rho, ch), 1.0).value
            assert res.t1 == t1 and abs(t1 - float(_PdmStack.closed_form(rho, ch.jamiolkowski()).t_p(1.0))) <= 1e-12
            assert res.bound_ok == (t1 <= d - 1 + 1e-9) and res.bound_ok
            if k >= 40:
                assert abs(res.t1 - (d - 1)) <= 1e-9

    @pytest.mark.parametrize("rho, ch, exc, match", [
        (np.diag([1.5, -0.5]), identity_channel(2), ValueError, "positive semidefinite"),
        (np.diag([np.nan, 1.0]), identity_channel(2), NonHermitian, "non-finite"),
        (np.diag([np.inf, 0.0]), identity_channel(2), NonHermitian, "non-finite"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), identity_channel(2), NonHermitian, "not Hermitian"),
        (np.eye(2), identity_channel(2), ValueError, "unit trace"),
        (np.ones((2, 3)) / 2, identity_channel(2), DimensionMismatch, "square"),
        (maximally_mixed(3), identity_channel(2), DimensionMismatch, "state dim 3"),
        (maximally_mixed(2), prandom.channel(2, 3, env_dim=2, rng=np.random.default_rng(0)),
         DimensionMismatch, "equal input and output"),
        (maximally_mixed(3), prandom.channel(2, 3, env_dim=2, rng=np.random.default_rng(0)),
         DimensionMismatch, "equal input and output"),
    ])
    def test_rejects_what_the_pdm_path_rejects(self, rho, ch, exc, match):
        with pytest.raises(exc, match=match) as info:
            check_bound(rho, ch)
        assert type(info.value) is exc


class TestClosedFormMemo:
    """The one ``Pdm`` a channel keeps: ``check_bound`` after ``pdm_closed_form`` on the same
    (state, channel) pair checks the state once, and any other state is checked afresh."""

    @staticmethod
    def count_checks(monkeypatch):
        import pdmsi.pdm as pdm_module

        calls = []
        real = pdm_module.check_density_matrix
        monkeypatch.setattr(pdm_module, "check_density_matrix", lambda rho: calls.append(1) or real(rho))
        return calls

    def test_one_state_check_per_pair(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        rng = np.random.default_rng(81)
        for d in (2, 3):
            rho, ch = prandom.density_matrix(d, rng), prandom.channel(d, d, env_dim=2, rng=rng)
            before = len(calls)
            pdm_closed_form(rho, ch)
            check_bound(rho, ch)
            check_bound(rho, ch)
            assert len(calls) - before == 1

    def test_reused_channel_bound_is_bit_identical_to_fresh(self):
        rng = np.random.default_rng(83)
        for d in (2, 3, 4):
            for k in range(10):
                rho, ch = prandom.density_matrix(d, rng), prandom.channel(d, d, env_dim=1 + k % 3, rng=rng)
                r = pdm_closed_form(rho, ch)
                assert check_bound(rho, ch) == check_bound(rho, KrausChannel(ch.kraus))
                assert np.array_equal(r.mat, pdm_closed_form(rho, KrausChannel(ch.kraus)).mat)

    def test_state_mutated_in_place_is_recomputed(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        rng = np.random.default_rng(85)
        rho, ch = prandom.density_matrix(2, rng), prandom.channel(2, 2, env_dim=3, rng=rng)
        pdm_closed_form(rho, ch)
        rho[...] = prandom.density_matrix(2, rng)
        res = check_bound(rho, ch)
        assert len(calls) == 2
        assert res.t1 == check_bound(rho.copy(), KrausChannel(ch.kraus)).t1
        assert np.array_equal(pdm_closed_form(rho, ch).mat, pdm_closed_form(rho.copy(), KrausChannel(ch.kraus)).mat)

    def test_state_mutated_into_an_invalid_one_raises(self):
        rho, ch = maximally_mixed(2), dephasing_channel(2)
        pdm_closed_form(rho, ch)
        rho[...] = np.diag([1.2, -0.2])
        with pytest.raises(ValueError, match="positive semidefinite"):
            check_bound(rho, ch)
        with pytest.raises(ValueError, match="positive semidefinite"):
            pdm_closed_form(rho, ch)

    def test_failed_check_stores_nothing(self):
        ch = identity_channel(2)
        pdm_closed_form(plus_state(), ch)
        kept = ch._closed_form_memo
        for bad in (np.diag([1.5, -0.5]), maximally_mixed(3), np.eye(2)):
            with pytest.raises((ValueError, DimensionMismatch)):
                pdm_closed_form(bad, ch)
            assert ch._closed_form_memo is kept

    def test_memo_is_read_only(self):
        ch = dephasing_channel(2)
        r = pdm_closed_form(plus_state(), ch)
        key, memo = ch._closed_form_memo
        assert key == ((2, 2), plus_state().tobytes())
        assert memo is r and pdm_closed_form(plus_state(), ch) is r
        with pytest.raises(ValueError, match="read-only"):
            r.mat[0, 0] = 0.0
        assert np.array_equal(pdm_closed_form(plus_state(), ch).mat, R_PLUS_DEPHASE)

    def test_list_and_real_states_match_the_complex_array(self, monkeypatch):
        calls = self.count_checks(monkeypatch)
        rng = np.random.default_rng(87)
        u = prandom.haar_unitary(3, rng)
        ch = prandom.channel(3, 3, env_dim=2, rng=rng)
        real = np.diag(rng.dirichlet(np.ones(3)))
        want_bound = check_bound(real.astype(complex), KrausChannel(ch.kraus))
        want_mat = pdm_closed_form(real.astype(complex), KrausChannel(ch.kraus)).mat
        for state in (real, real.tolist(), real.astype(complex)):
            assert check_bound(state, ch) == want_bound
            assert np.array_equal(pdm_closed_form(state, ch).mat, want_mat)
        other = u @ real @ u.conj().T
        assert check_bound(other.tolist(), ch) == check_bound(other, KrausChannel(ch.kraus))
        # One check for each fresh channel, one for all three forms of ``real`` on ``ch`` (they share
        # one key), and one for ``other`` on each channel.
        assert len(calls) == 2 + 1 + 2


class TestStackedKernels:
    """The stacked kernels against the one-item public calls, which stay the oracle."""

    def test_t1_stack_matches_si_measure_per_pair(self):
        rng = np.random.default_rng(59)
        states, chs = zip(*[
            (prandom.density_matrix(2, rng), prandom.channel(2, 2, env_dim=1 + k % 4, rng=rng))
            for k in range(10_000)
        ])
        stacked = _PdmStack.closed_form(np.array(states), np.array([ch.jamiolkowski() for ch in chs])).t_p(1.0)
        per_pair = [si_measure(pdm_closed_form(rho, ch), 1.0).value for rho, ch in zip(states, chs)]
        assert np.max(np.abs(stacked - per_pair)) <= 1e-12

    @pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
    def test_t_p_stack_matches_items(self, p):
        rng = np.random.default_rng(61)
        mats = np.array([prandom.unit_trace_hermitian(6, rng) for _ in range(50)])
        stacked = _PdmStack(mats, (2, 3)).t_p(p)
        assert np.max(np.abs(stacked - [si_measure(Pdm(m, (2, 3)), p).value for m in mats])) <= 1e-12

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_spectrum_only_t_p_matches_eig_hermitian(self, p):
        """_PdmStack.t_p (eigvalsh) against _t_p of eig_hermitian's spectrum: random unit-trace
        matrices, degenerate spectra, the extremal PDM, and 2->3 closed forms."""
        rng = np.random.default_rng(73)
        degenerate = [np.diag(lam).astype(complex) for lam in
                      ([-0.25, -0.25, 0.75, 0.75], [0.25] * 4, [-0.5, 0.5, 0.5, 0.5], [1.0, 0.0, 0.0, 0.0])]
        rotations = [prandom.haar_unitary(4, rng) for _ in degenerate]
        degenerate += [u @ m @ u.conj().T for m, u in zip(degenerate, rotations)]
        stacks = [
            _PdmStack(np.array([prandom.unit_trace_hermitian(4, rng) for _ in range(50)]), (2, 2)),
            _PdmStack(np.array(degenerate), (2, 2)),
            _PdmStack.closed_form(np.array([projector(ket(0, 3)), maximally_mixed(3)]),
                                  identity_channel(3).jamiolkowski()),
            _PdmStack.closed_form(np.array([prandom.density_matrix(2, rng) for _ in range(30)]),
                                  np.array([prandom.channel(2, 3, env_dim=1 + k % 3, rng=rng).jamiolkowski()
                                            for k in range(30)])),
        ]
        for s in stacks:
            want = _t_p(eig_hermitian(s.mats, atol=PDM_ATOL).eigenvalues, p)
            assert np.max(np.abs(s.t_p(p) - want)) <= 1e-12
        assert stacks[-1].mats.shape == (30, 6, 6) and stacks[-1].dims == (2, 3)

    def test_basis_kernels_on_stacks(self):
        rng = np.random.default_rng(67)
        b1, b2 = ObservableBasis.from_descriptor("pauli:1"), ObservableBasis.from_descriptor("light_touch:3")
        mats = np.array([prandom.unit_trace_hermitian(6, rng) for _ in range(20)]).reshape(4, 5, 6, 6)
        overlaps = _overlaps(mats, b1.matrices, b2.matrices)
        assert overlaps.shape == (4, 5, len(b1), len(b2))
        for idx in np.ndindex(4, 5):
            assert np.array_equal(overlaps[idx], _overlaps(mats[idx], b1.matrices, b2.matrices))
        coeffs = _factored_gram_solve(overlaps.real, b1, b2)
        assert np.max(np.abs(_expand(coeffs, b1, b2) - mats)) <= 1e-10


class TestTpProperties:
    def test_convexity(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            r1, r2 = random_pdm(rng), random_pdm(rng)
            w = float(rng.random())
            mixed = Pdm(w * r1.mat + (1 - w) * r2.mat, (2, 2))
            lhs = si_measure(mixed, 1.0).value
            rhs = w * si_measure(r1, 1.0).value + (1 - w) * si_measure(r2, 1.0).value
            assert lhs <= rhs + 1e-9

    def test_unitary_invariance(self):
        rng = np.random.default_rng(61)
        for p in [1.0, 2.0]:
            for _ in range(50):
                r = random_pdm(rng)
                u = prandom.haar_unitary(4, rng)
                rotated = Pdm(u @ r.mat @ u.conj().T, (2, 2))
                assert abs(si_measure(rotated, p).value - si_measure(r, p).value) < 1e-9

    def test_cptp_monotonicity(self):
        rng = np.random.default_rng(67)
        for _ in range(100):
            r = random_pdm(rng)
            ch = prandom.channel(4, 4, env_dim=2, rng=rng)
            assert (
                si_measure(Pdm(ch(r.mat), (2, 2)), 1.0).value
                <= si_measure(r, 1.0).value + 1e-9
            )


DIMS = st.sampled_from([(2, 2), (2, 3), (3, 2), (3, 3)])
ORDERS = st.sampled_from([1.0, 1.3, 1.5, 2.0, 3.0, 5.0, 10.0])
PROPERTY_SETTINGS = settings(derandomize=True, deadline=None, max_examples=60)


@st.composite
def hermitian_parts(draw, dims):
    """Real and imaginary parts of an n x n matrix, n = d1 * d2, entries in [-1, 1]."""
    n = dims[0] * dims[1]
    return draw(hnp.arrays(np.float64, (2, n, n), elements=st.floats(-1.0, 1.0, width=64)))


@st.composite
def pdms(draw):
    """Unit-trace Hermitian matrices, zero matrix (R = I/n) and repeated entries included."""
    dims = draw(DIMS)
    parts = draw(hermitian_parts(dims))
    x = parts[0] + 1j * parts[1]
    h = (x + x.conj().T) / 2.0
    n = h.shape[0]
    h = h - (np.trace(h).real - 1.0) / n * np.eye(n)
    return Pdm(h, dims)


@st.composite
def density_pdms(draw):
    dims = draw(DIMS)
    parts = draw(hermitian_parts(dims))
    x = parts[0] + 1j * parts[1]
    rho = x @ x.conj().T + 1e-3 * np.eye(x.shape[0])
    return Pdm(rho / np.trace(rho).real, dims)


class TestTpHypothesis:
    @PROPERTY_SETTINGS
    @given(r=pdms(), p=ORDERS, seed=st.integers(0, 2**32 - 1))
    def test_unitary_invariance(self, r, p, seed):
        u = prandom.haar_unitary(r.mat.shape[0], np.random.default_rng(seed))
        rotated = Pdm(u @ r.mat @ u.conj().T, r.dims)
        assert abs(si_measure(rotated, p).value - si_measure(r, p).value) < 1e-9

    @PROPERTY_SETTINGS
    @given(r=pdms())
    def test_non_increasing_in_p(self, r):
        values = [si_measure(r, p).value for p in (1.0, 1.3, 1.5, 2.0, 3.0, 5.0, 10.0)]
        assert all(later <= earlier + 1e-12 for earlier, later in zip(values, values[1:]))

    @PROPERTY_SETTINGS
    @given(r=pdms(), p=ORDERS)
    def test_zero_exactly_on_density_matrices(self, r, p):
        value = si_measure(r, p).value
        assert (value == 0.0) == (r.min_eigenvalue() >= -NEGATIVITY_ATOL)

    @PROPERTY_SETTINGS
    @given(r=density_pdms(), p=ORDERS)
    def test_density_matrix_gives_zero(self, r, p):
        assert si_measure(r, p).value == 0.0

    @PROPERTY_SETTINGS
    @given(r=pdms(), p=ORDERS)
    def test_minimizer_is_density_matrix_attaining_value(self, r, p):
        rep = si_measure(r, p)
        assert abs(np.trace(rep.minimizer).real - 1.0) < 1e-9
        assert np.linalg.eigvalsh(rep.minimizer)[0] > -1e-9
        assert abs(schatten_norm(r.mat - rep.minimizer, p) - rep.value) < 1e-9 * (1.0 + rep.value)

    @PROPERTY_SETTINGS
    @given(dims=DIMS, p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), seed=st.integers(0, 2**32 - 1),
           w=st.floats(0.0, 1.0))
    def test_convexity(self, dims, p, seed, w):
        # T_p is a Schatten-p distance to the convex set of density matrices.
        rng = np.random.default_rng(seed)
        r1, r2 = random_pdm(rng, dims), random_pdm(rng, dims)
        mixed = Pdm(w * r1.mat + (1 - w) * r2.mat, dims)
        rhs = w * si_measure(r1, p).value + (1 - w) * si_measure(r2, p).value
        assert si_measure(mixed, p).value <= rhs + 1e-9


class TestPdmStack:
    """A stack is checked once when built; a member is read from it with no second check."""

    def test_member_is_a_read_only_view_read_unchecked(self, monkeypatch):
        rng = np.random.default_rng(83)
        stack = _PdmStack(np.array([random_pdm(rng, (2, 3)).mat for _ in range(5)]), (2, 3))

        def checked(*args, **kwargs):
            raise AssertionError("a stack member was checked again")

        monkeypatch.setattr(pdm_module, "_check_pdm", checked)
        members = [stack[k] for k in range(5)]
        eigs = [r.eig for r in members]
        monkeypatch.undo()
        for k, (r, eig) in enumerate(zip(members, eigs)):
            assert type(r) is Pdm and r.dims == (2, 3)
            assert np.shares_memory(r.mat, stack.mats) and not r.mat.flags.writeable
            want = Pdm(stack.mats[k], (2, 3)).eig
            assert np.array_equal(eig.eigenvalues, want.eigenvalues)
            assert np.array_equal(eig.eigenvectors, want.eigenvectors)

    def test_stack_owns_a_read_only_copy_and_caches_its_spectra(self):
        mats = np.array([np.eye(4) / 4.0, np.diag([1.0, 0.5, -0.5, 0.0])], dtype=complex)
        stack = _PdmStack(mats, (np.int64(2), 2))
        mats[0, 0, 0] = 9.0
        assert stack.mats[0, 0, 0] == 0.25 and not stack.mats.flags.writeable
        assert stack.dims == (2, 2) and all(type(d) is int for d in stack.dims)
        assert stack.spectra is stack.spectra and not stack.spectra.flags.writeable
        assert stack.t_p(1.0).tolist() == [0.0, 1.0]

    def test_dims_must_factor_the_matrices(self):
        with pytest.raises(DimensionMismatch, match="of dim 4 does not factor as 2x3"):
            _PdmStack(np.eye(4)[None] / 4, (2, 3))
        assert _PdmStack.closed_form(maximally_mixed(2), prandom.channel(2, 3, env_dim=2,
                                     rng=np.random.default_rng(3)).jamiolkowski()).dims == (2, 3)

    @PROPERTY_SETTINGS
    @given(dims=st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 2)]), seed=st.integers(0, 2**32 - 1),
           levels=st.lists(st.sampled_from([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0]), min_size=1, max_size=3))
    def test_t_p_matches_si_measure_of_each_member(self, dims, seed, levels):
        """Spectra drawn from at most three levels, so most are degenerate, shifted to unit trace;
        every other member is rotated by a Haar unitary, the rest stay diagonal."""
        n, rng = dims[0] * dims[1], np.random.default_rng(seed)
        mats = []
        for k in range(4):
            lam = rng.choice(levels, n)
            m = np.diag(lam - (lam.sum() - 1.0) / n).astype(complex)
            u = prandom.haar_unitary(n, rng) if k % 2 else np.eye(n)
            mats.append(u @ m @ u.conj().T)
        stack = _PdmStack(np.array(mats), dims)
        for p in (1.0, 1.5, 2.0, 3.0):
            values = stack.t_p(p)
            for k in range(4):
                assert abs(values[k] - si_measure(stack[k], p).value) <= 1e-12


# Loop references for the stacked basis kernels: one kron per label pair.
def loop_correlators(mat, b1, b2) -> np.ndarray:
    out = np.empty((len(b1), len(b2)), dtype=complex)
    for k, a in enumerate(b1.labels):
        for l, b in enumerate(b2.labels):
            out[k, l] = np.trace(mat @ kron(b1.matrix(a), b2.matrix(b)))
    return out


def loop_expand(coeffs: dict, b1, b2) -> np.ndarray:
    return sum(c * kron(b1.matrix(a), b2.matrix(b)) for (a, b), c in coeffs.items())


PAULI_PAIRS = [("pauli:1", "pauli:1"), ("pauli:2", "pauli:2"), ("pauli:1", "pauli:2")]
BASIS_PAIRS = st.sampled_from(
    PAULI_PAIRS
    + [(f"light_touch:{d}", f"light_touch:{d}") for d in (2, 3, 4, 5, 6)]
    + [("pauli:1", "light_touch:3"), ("light_touch:3", "pauli:1"),
       ("light_touch:3", "light_touch:5")]
)
KERNEL_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)


def bases_and_matrix(pair, seed):
    b1, b2 = (ObservableBasis.from_descriptor(desc) for desc in pair)
    mat = prandom.unit_trace_hermitian(b1.dim * b2.dim, np.random.default_rng(seed))
    return b1, b2, mat


class TestSharedDecomposition:
    def test_one_eig_hermitian_per_pdm(self, monkeypatch):
        """One eigensolve per ``Pdm``, counted at the solver ``Pdm.eig`` shares with ``eig_hermitian``."""
        import pdmsi.pdm as pdm_module

        calls = []
        solve = pdm_module._eigh_hermitian_part
        monkeypatch.setattr(pdm_module, "_eigh_hermitian_part", lambda *a, **k: calls.append(1) or solve(*a, **k))
        r = pdm_closed_form(plus_state(), dephasing_channel(2))
        for p in (1.0, 2.0):
            si_measure(r, p)
        for policy in ("negative_eigenspace", "most_negative"):
            synthesize_witness(r, policy=policy)
        r.min_eigenvalue()
        assert len(calls) == 1
        assert np.array_equal(r.eig.eigenvalues, eig_hermitian(r.mat, atol=1e-9).eigenvalues)

    @pytest.mark.parametrize("seed", range(4))
    def test_eig_is_eig_hermitian_without_a_second_check(self, seed, monkeypatch):
        """``Pdm.eig`` holds the bits of ``eig_hermitian(mat, atol=PDM_ATOL)`` and checks nothing: random
        PDMs, degenerate spectra, d1 != d2 and members of a ``_PdmStack``."""
        import pdmsi.linalg as linalg_module

        rng = np.random.default_rng(seed)
        u = prandom.haar_unitary(6, rng)
        degenerate = (u * np.array([0.5, 0.5, 0.25, 0.25, -0.25, -0.25])) @ u.conj().T
        pdms = [
            Pdm(prandom.unit_trace_hermitian(4, rng), (2, 2)),
            Pdm(degenerate, (2, 3)),
            Pdm(degenerate, (3, 2)),
            pdm_closed_form(projector(ket(0, 3)), identity_channel(3)),  # {1, 1/2 x 2, -1/2 x 2, 0 x 4}
            pdm_closed_form(prandom.density_matrix(2, rng), prandom.channel(2, 3, env_dim=2, rng=rng)),
            pdm_closed_form(np.eye(2) / 2, identity_channel(2)),
        ]
        stack = _PdmStack(np.array([prandom.unit_trace_hermitian(6, rng) for _ in range(3)] + [degenerate]), (2, 3))
        pdms += [stack[k] for k in range(4)]
        checks = []
        real = linalg_module.check_hermitian
        monkeypatch.setattr(linalg_module, "check_hermitian", lambda *a, **k: checks.append(1) or real(*a, **k))
        eigs = [r.eig for r in pdms]
        assert checks == []
        for r, eig in zip(pdms, eigs):
            want = eig_hermitian(r.mat, atol=PDM_ATOL)
            assert np.array_equal(eig.eigenvalues, want.eigenvalues)
            assert np.array_equal(eig.eigenvectors, want.eigenvectors)

    def test_mat_and_eig_are_read_only_copies(self):
        m = R_BASIS_IDENTITY.copy()
        r = Pdm(m, (2, 2))
        m[0, 0] = 5.0
        assert r.mat[0, 0] == 1.0
        for a in (r.mat, r.eig.eigenvalues, r.eig.eigenvectors):
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


class TestSynthesizedWitnessPsd:
    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), dims=st.sampled_from([(2, 2), (2, 3), (3, 3)]),
           policy=st.sampled_from(["negative_eigenspace", "most_negative"]))
    def test_projector_witness_is_psd(self, seed, dims, policy):
        r = random_pdm(np.random.default_rng(seed), dims)
        if r.min_eigenvalue() >= -NEGATIVITY_ATOL:
            with pytest.raises(NotSpatiallyIncompatible):
                synthesize_witness(r, policy=policy)
            return
        w = synthesize_witness(r, policy=policy)
        assert float(np.linalg.eigvalsh(w.mat)[0]) >= -NEGATIVITY_ATOL
        assert w.expectation(r) < 0.0

    def test_public_constructor_still_checks_psd(self):
        b = ObservableBasis.pauli(1)
        with pytest.raises(ValueError, match="positive semidefinite"):
            Witness(-np.eye(4) / 4, b, b)


GRAM_DESCRIPTORS = ["pauli:1", "pauli:2", "pauli:3", "light_touch:3", "light_touch:5"]


class TestInverseGram:
    """Each shared basis inverts its Gram matrix once; ``_factored_gram_solve`` is two products with
    the inverses, checked against the two ``np.linalg.solve`` calls they replaced."""

    @pytest.mark.parametrize("descriptor", GRAM_DESCRIPTORS)
    def test_inverse_is_read_only(self, descriptor):
        b = ObservableBasis.from_descriptor(descriptor)
        assert np.max(np.abs(b.gram_inv @ b.gram - np.eye(len(b)))) <= 1e-12
        with pytest.raises(ValueError, match="read-only"):
            b.gram_inv[0, 0] = 0.0

    @pytest.mark.parametrize("pair", [(d, d) for d in GRAM_DESCRIPTORS] + [
        ("pauli:1", "light_touch:3"), ("light_touch:3", "pauli:1"), ("pauli:1", "pauli:2"),
        ("light_touch:3", "light_touch:5"), ("pauli:2", "light_touch:5")])
    def test_matches_solve_reference(self, pair):
        rng = np.random.default_rng(89)
        b1, b2 = (ObservableBasis.from_descriptor(desc) for desc in pair)
        n = b1.dim * b2.dim
        mats = np.array([prandom.unit_trace_hermitian(n, rng) for _ in range(6)]).reshape(2, 3, n, n)
        overlaps = _overlaps(mats, b1.matrices, b2.matrices).real
        got, want = _factored_gram_solve(overlaps, b1, b2), gram_solve(overlaps, b1, b2)
        assert got.shape == want.shape == (2, 3, len(b1), len(b2))
        assert np.max(np.abs(got - want)) <= 1e-12
        if pair[0].startswith("pauli") and pair[1].startswith("pauli"):
            assert np.array_equal(got, want)


class TestBasisKernels:
    @KERNEL_SETTINGS
    @given(pair=BASIS_PAIRS, seed=st.integers(0, 2**32 - 1))
    def test_correlators_match_loop(self, pair, seed):
        b1, b2, mat = bases_and_matrix(pair, seed)
        table = exact_correlators(Pdm(mat, (b1.dim, b2.dim)), (b1, b2))
        assert list(table.entries) == [(a, b) for a in b1.labels for b in b2.labels]
        values = np.array(list(table.entries.values())).reshape(len(b1), len(b2))
        assert np.max(np.abs(values - loop_correlators(mat, b1, b2))) <= 1e-12

    @KERNEL_SETTINGS
    @given(pair=BASIS_PAIRS, seed=st.integers(0, 2**32 - 1))
    def test_reconstruction_recovers_pdm(self, pair, seed):
        b1, b2, mat = bases_and_matrix(pair, seed)
        r = pdm_from_correlators(exact_correlators(Pdm(mat, (b1.dim, b2.dim)), (b1, b2)))
        assert r.dims == (b1.dim, b2.dim)
        assert np.max(np.abs(r.mat - mat)) <= 1e-12

    @KERNEL_SETTINGS
    @given(pair=BASIS_PAIRS, seed=st.integers(0, 2**32 - 1))
    def test_witness_coefficients_reexpand(self, pair, seed):
        b1, b2, mat = bases_and_matrix(pair, seed)
        coeffs = _pair_coefficients(mat, b1, b2)
        assert coeffs.shape == (len(b1), len(b2))
        assert np.max(np.abs(loop_expand(by_label(coeffs, b1, b2), b1, b2) - mat)) <= 1e-10

    @KERNEL_SETTINGS
    @given(pair=BASIS_PAIRS, seed=st.integers(0, 2**32 - 1), frac=st.floats(0.01, 0.99))
    def test_correlators_are_those_of_the_hermitian_part(self, pair, seed, frac):
        """A matrix ``frac * PDM_ATOL`` from Hermitian passes ``Pdm``; its correlators are those of
        its Hermitian part, the matrix that ``Pdm.eig`` diagonalises."""
        b1, b2, h = bases_and_matrix(pair, seed)
        rng = np.random.default_rng(seed + 1)
        g = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
        a = (g - g.conj().T) / 2.0
        m = h + a * (frac * PDM_ATOL / np.max(np.abs(2.0 * a)))
        got = exact_correlators(Pdm(m, (b1.dim, b2.dim)), (b1, b2)).values
        want = exact_correlators(Pdm((m + m.conj().T) / 2.0, (b1.dim, b2.dim)), (b1, b2)).values
        assert np.max(np.abs(got - want)) <= 1e-13


# The array-backed table and witness against the label-keyed dict code they
# replaced (tests/oracles.py): bytes, values, pair orders, errors and the bits
# of <W> must all be identical.
ORACLE_PAIRS = st.sampled_from(
    [(f"pauli:{n}", f"pauli:{n}") for n in (1, 2, 3)]
    + [(f"light_touch:{d}", f"light_touch:{d}") for d in (2, 3, 4, 5, 6)]
    + [("pauli:1", "light_touch:3"), ("light_touch:3", "pauli:1")]
)
ORACLE_SETTINGS = settings(derandomize=True, deadline=None, max_examples=40)
SPECIAL_VALUES = [0.0, -0.0, 1.0, -1.0, 5e-324, -1e300, 1.0 / 3.0]


def random_table(pair, seed, full, with_shots):
    """A table built from the label-keyed dicts, inserted in random order, and those dicts."""
    b1, b2 = (ObservableBasis.from_descriptor(desc) for desc in pair)
    rng = np.random.default_rng(seed)
    pairs = [(a, b) for a in b1.labels for b in b2.labels]
    kept = pairs if full else [key for key in pairs if rng.random() < 0.6]
    entries = {}
    for k in rng.permutation(len(kept)):
        special = rng.random() < 0.2
        entries[kept[k]] = float(rng.choice(SPECIAL_VALUES)) if special else float(rng.normal())
    shots = {key: int(rng.integers(0, 10**6)) for key in pairs if rng.random() < 0.8} if with_shots else None
    return dict_table(b1, b2, entries, shots), entries, shots


def messy_csv(text, rng):
    """The same CSV with padded cells, shuffled data rows and blank lines."""
    header, *rows = text.splitlines()
    out = [" " + header + "\t"]
    for k in rng.permutation(len(rows)):
        out.append(",".join(" " * int(rng.integers(0, 3)) + cell + "\t" * int(rng.integers(0, 2))
                            for cell in rows[k].split(",")))
        if rng.random() < 0.2:
            out.append(str(rng.choice(["", "   ", "\t"])))
    return "\n" + "\n".join(out) + str(rng.choice(["", "\n", "\n\n  \n"]))


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (KeyError, ValueError) as err:
        return type(err), str(err)


class TestArrayTableMatchesDictOracle:
    @ORACLE_SETTINGS
    @given(pair=ORACLE_PAIRS, seed=st.integers(0, 2**32 - 1), full=st.booleans(), with_shots=st.booleans())
    def test_to_csv_bytes(self, pair, seed, full, with_shots):
        table, entries, shots = random_table(pair, seed, full, with_shots)
        assert table.to_csv() == dict_table_to_csv(table.basis1, table.basis2, entries, shots)
        assert table.missing_pairs() == dict_missing_pairs(table.basis1, table.basis2, entries)
        assert table.entries == entries and dict_shots_match(table, shots)
        assert table.entries is table.entries

    @ORACLE_SETTINGS
    @given(pair=ORACLE_PAIRS, seed=st.integers(0, 2**32 - 1))
    def test_exact_table_csv_bytes(self, pair, seed):
        b1, b2, mat = bases_and_matrix(pair, seed)
        table = exact_correlators(Pdm(mat, (b1.dim, b2.dim)), (b1, b2))
        overlaps = _overlaps(mat, b1.matrices, b2.matrices).real.ravel().tolist()
        values = dict(zip([(a, b) for a in b1.labels for b in b2.labels], overlaps))
        assert table.to_csv() == dict_table_to_csv(b1, b2, values, None)

    @ORACLE_SETTINGS
    @given(pair=ORACLE_PAIRS, seed=st.integers(0, 2**32 - 1), full=st.booleans(), with_shots=st.booleans())
    def test_from_csv_values(self, pair, seed, full, with_shots):
        table, _, _ = random_table(pair, seed, full, with_shots)
        b1, b2 = table.basis1, table.basis2
        text = messy_csv(table.to_csv(), np.random.default_rng(seed))
        entries, shots = dict_table_from_csv(text, b1, b2)
        back = CorrelatorTable.from_csv(text, b1, b2)
        assert back.entries == entries and dict_shots_match(back, shots)
        assert back.to_csv() == dict_table_to_csv(b1, b2, entries, shots)
        assert back.missing_pairs() == dict_missing_pairs(b1, b2, entries)
        if back.missing_pairs():
            with pytest.raises(IncompleteTable) as err:
                pdm_from_correlators(back)
            assert err.value.missing == dict_missing_pairs(b1, b2, entries)

    @ORACLE_SETTINGS
    @given(pair=ORACLE_PAIRS, seed=st.integers(0, 2**32 - 1), with_shots=st.booleans(),
           fault=st.sampled_from(["label1", "label2", "extra_cell", "short_row"]))
    def test_from_csv_errors(self, pair, seed, with_shots, fault):
        table, _, _ = random_table(pair, seed, False, with_shots)
        b1, b2 = table.basis1, table.basis2
        rng = np.random.default_rng(seed)
        lines = table.to_csv().splitlines()
        if len(lines) < 2:
            lines.append(f"{b1.labels[0]},{b2.labels[0]},0.5,")
        k = int(rng.integers(1, len(lines)))
        cells = lines[k].split(",")
        if fault == "label1":
            cells[0] = "Q9"
        elif fault == "label2":
            cells[1] = "Q9"
        elif fault == "extra_cell":
            cells.append("1")
        else:
            cells.pop()
        lines[k] = ",".join(cells)
        text = "\n".join(lines) + "\n"
        want = outcome(dict_table_from_csv, text, b1, b2)
        got = outcome(CorrelatorTable.from_csv, text, b1, b2)
        assert got[0] is want[0] is (KeyError if fault.startswith("label") else ValueError)
        if want[0] is KeyError:
            assert got[1] == want[1]

    @ORACLE_SETTINGS
    @given(pair=ORACLE_PAIRS, seed=st.integers(0, 2**32 - 1), full=st.booleans())
    def test_evaluate_witness_bits(self, pair, seed, full):
        b1, b2 = (ObservableBasis.from_descriptor(desc) for desc in pair)
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=b1.dim * b2.dim) + 1j * rng.normal(size=b1.dim * b2.dim)
        mat = np.outer(psi, psi.conj()) / np.vdot(psi, psi).real
        coefficients = _pair_coefficients(mat, b1, b2)
        w = Witness(mat, b1, b2)
        coeffs = by_label(coefficients, b1, b2)
        assert np.array_equal(w.coefficients, coefficients)
        got_map = w.to_dict()["coefficients"]
        want_map = dict_witness_coefficients(coeffs)
        assert list(got_map.items()) == list(want_map.items())

        table, entries, _ = random_table(pair, seed, full, False)
        want = dict_evaluate_witness(coeffs, entries, WITNESS_COEFF_ATOL)
        if isinstance(want, list):
            with pytest.raises(IncompleteTable) as err:
                evaluate_witness(w, table)
            assert err.value.missing == want
        else:
            assert evaluate_witness(w, table).hex() == want.hex()

    def test_evaluate_witness_skips_zero_coefficients(self):
        """The singlet projector has four nonzero coefficients; a table of only those four pairs
        gives the bits of the label-keyed sum, and one of them missing is reported."""
        r = pdm_closed_form(projector(ket(0)), identity_channel(2))
        w = synthesize_witness(r)
        coeffs = by_label(w.coefficients, w.basis1, w.basis2)
        kept = [k for k, c in coeffs.items() if abs(c) > WITNESS_COEFF_ATOL]
        assert kept == [("I", "I"), ("X", "X"), ("Y", "Y"), ("Z", "Z")]
        exact = exact_correlators(r).entries
        table = dict_table(w.basis1, w.basis2, {k: exact[k] for k in kept})
        want = dict_evaluate_witness(coeffs, table.entries, WITNESS_COEFF_ATOL)
        assert evaluate_witness(w, table).hex() == want.hex()
        assert abs(want + 0.5) < 1e-12
        short = dict_table(w.basis1, w.basis2, {k: exact[k] for k in kept[1:]})
        with pytest.raises(IncompleteTable) as err:
            evaluate_witness(w, short)
        assert err.value.missing == [("I", "I")]
