import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from dipolemirror import (
    ConvergenceError,
    DomainError,
    FormatError,
    PhaseMap,
    ProvenanceError,
    SellmeierModel,
    ZernikeExpansion,
    fused_silica,
    make_phase_plate,
    pv_rms,
    remove_misalignment,
    rescale_wavelength,
    single_pass,
    zernike_fit,
)
from dipolemirror.wavefront import (
    MISALIGNMENT_TERMS,
    _harmonics,
    _recurrence,
    _unit_phasor,
    load_expansion,
    load_phase_map,
    save_expansion,
    zernike_eval,
)

RNG = np.random.default_rng(7)
RHO = RNG.uniform(0.0, 1.0, 64)
PHI = RNG.uniform(-math.pi, math.pi, 64)


@pytest.mark.parametrize(
    "n, m, closed_form",
    [
        (0, 0, lambda r, p: np.ones_like(r)),
        (1, 1, lambda r, p: r * np.cos(p)),
        (1, -1, lambda r, p: r * np.sin(p)),
        (2, 0, lambda r, p: 2.0 * r**2 - 1.0),
        (2, 2, lambda r, p: r**2 * np.cos(2.0 * p)),
        (2, -2, lambda r, p: r**2 * np.sin(2.0 * p)),
        (3, 1, lambda r, p: (3.0 * r**3 - 2.0 * r) * np.cos(p)),
        (4, 0, lambda r, p: 6.0 * r**4 - 6.0 * r**2 + 1.0),
    ],
)
def test_zernike_term_closed_forms(n, m, closed_form):
    term = ZernikeExpansion(terms=((n, m, 1.0),), wavelength_nm=632.8)
    assert np.allclose(zernike_eval(term, RHO, PHI), closed_form(RHO, PHI), atol=1e-13)


def _random_expansion(seed, degree=10):
    rng = np.random.default_rng(seed)
    terms = tuple((n, m, rng.normal()) for n in range(degree + 1) for m in range(-n, n + 1, 2))
    return ZernikeExpansion(terms=terms, wavelength_nm=632.8)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_zernike_eval_matches_per_term_sum(seed):
    # grouping by azimuthal order, Clenshaw in rho^2, angular factors from
    # powers of exp(i phi) and the matrix product on tensor axes only
    # reorder the arithmetic
    rng = np.random.default_rng(seed + 100)
    rho_axis = np.linspace(0.0, 1.0, 97)[:, None]
    phi_axis = rng.uniform(-math.pi, math.pi, 61)[None, :]
    # more points than one block of the elementwise sum, and a partial block;
    # the exact oracle checks every 40th of them
    scattered = rng.uniform(0.0, 1.0, 40_000), rng.uniform(-math.pi, math.pi, 40_000)
    for degree in (10, 16):
        exp = _random_expansion(seed, degree)
        pmap = PhaseMap.from_expansion(exp, size=64, annulus=(0.071, 1.0))
        annular_rho, annular_phi = (g[pmap.mask] for g in pmap.grid_polar())
        inputs = [
            (RHO, PHI),
            (rho_axis, phi_axis),
            (np.broadcast_to(rho_axis, (97, 61)), np.broadcast_to(phi_axis, (97, 61))),
            (rho_axis, np.broadcast_to(phi_axis, (97, 61))),
            (annular_rho, annular_phi),
            scattered,
            (0.5, 0.25),
        ]
        for rho, phi in inputs:
            got = zernike_eval(exp, rho, phi)
            if rho is scattered[0]:
                got, rho, phi = got[::40], rho[::40], phi[::40]
            want = oracles.zernike_sum(exp, rho, phi)
            assert got.shape == want.shape
            # agreement to 1e-13 of the value scale, with each radial part exact
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()
        # the one matrix product on tensor axes is the elementwise sum to rounding
        separable = zernike_eval(exp, rho_axis, phi_axis)
        elementwise = zernike_eval(exp, *np.broadcast_arrays(rho_axis, phi_axis))
        assert np.abs(separable - elementwise).max() <= 1e-13 * np.abs(elementwise).max()


def _per_order_tensor_sum(expansion, rho, phi):
    # the tensor-grid sum one azimuthal order at a time: each order's
    # values by its own Clenshaw loop in rho^2, on the recurrence table of
    # its own top k, times rho^|m|, then one product of radial columns and
    # angular rows
    orders = {}
    for n, m, v in expansion.terms:
        if v != 0.0:
            k = (n - abs(m)) // 2
            values = orders.setdefault(m, [])
            values.extend([0.0] * (k + 1 - len(values)))
            values[k] = v
    u = rho * rho
    radials, angulars = [], []
    for m, angular in _harmonics(orders, _unit_phasor(phi)):
        scale, shift, back = _recurrence((abs(m),), len(orders[m]) - 1)[..., 0]
        c = np.multiply(orders[m], scale)
        b1, b2 = np.full(u.shape, c[-1]), np.zeros(u.shape)
        for k in range(len(c) - 2, -1, -1):
            b1, b2 = (u + shift[k]) * b1 - back[k + 1] * b2 + c[k], b1
        radials.append(b1 * rho ** abs(m))
        angulars.append(angular)
    return np.hstack(radials) @ np.vstack(angulars)


@settings(max_examples=60, deadline=None)
@given(degree=st.integers(0, 27), data=st.data(),
       n_rho=st.integers(1, 70), n_phi=st.integers(1, 130), seed=st.integers(0, 2**32 - 1))
def test_tensor_sum_is_the_per_order_clenshaw_bit_for_bit(degree, data, n_rho, n_phi, seed):
    indices = [(n, m) for n in range(degree + 1) for m in range(-n, n + 1, 2)]
    values = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=len(indices),
                                max_size=len(indices)))
    assume(any(values))
    exp = ZernikeExpansion(terms=tuple((n, m, v) for (n, m), v in zip(indices, values)),
                           wavelength_nm=632.8)
    rng = np.random.default_rng(seed)
    rho = np.sort(rng.uniform(0.0, 1.0, n_rho))[:, None]
    phi = rng.uniform(-math.pi, math.pi, n_phi)[None, :]
    assert np.array_equal(zernike_eval(exp, rho, phi), _per_order_tensor_sum(exp, rho, phi))


def test_zernike_eval_keeps_the_broadcast_shape():
    piston = ZernikeExpansion(terms=((0, 0, 0.3), (2, 0, 0.0)), wavelength_nm=632.8)
    out = zernike_eval(piston, np.zeros((4, 1)), np.zeros((1, 5)))
    assert out.shape == (4, 5) and np.all(out == 0.3)
    empty = ZernikeExpansion(terms=(), wavelength_nm=632.8)
    assert zernike_eval(empty, RHO, PHI).shape == RHO.shape


def test_zernike_term_rejects_bad_indices():
    for n, m in ((2, 1), (1, 2), (-1, 1), (3, -2)):
        with pytest.raises(DomainError):
            ZernikeExpansion(terms=((n, m, 1.0),), wavelength_nm=632.8)


def test_zernike_term_beyond_the_float_range_is_refused():
    # the expansion refuses every term above degree 27 when it is built
    with pytest.raises(DomainError, match=r"Zernike term \(n=900, m=0\) lies above degree 27"):
        ZernikeExpansion(terms=((900, 0, 0.01),), wavelength_nm=632.8)


def test_radial_polynomials_of_every_admitted_degree_match_the_exact_sum():
    # the lowest order of each degree is the one whose powers cancel the
    # most, and the highest is rho^n alone
    rho = np.linspace(0.0, 1.0, 401)
    for n in range(28):
        for m in {n % 2, n}:
            term = ZernikeExpansion(terms=((n, m, 1.0),), wavelength_nm=632.8)
            got = zernike_eval(term, rho, 0.0)
            assert np.abs(got - oracles.zernike_radial_exact(n, m, rho)).max() < 1e-13


def test_fit_refuses_a_degree_it_cannot_evaluate_before_allocating():
    # the moments alone would take (degree + 1)^4 floats, 113 MB at degree 60
    pmap = PhaseMap.from_expansion(ZernikeExpansion(terms=((2, 0, 0.1),), wavelength_nm=632.8),
                                   size=128)
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match=r"fit degree 60 lies outside 0 to 27"):
            zernike_fit(pmap, 60)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(DomainError, match=r"fit degree 29 lies outside 0 to 27"):
        zernike_fit(pmap, 29)


def test_expansion_validation():
    with pytest.raises(DomainError):
        ZernikeExpansion(terms=((2, 1, 0.1),), wavelength_nm=633.0)
    with pytest.raises(DomainError):
        ZernikeExpansion(terms=((2, 0, 0.1), (2, 0, 0.2)), wavelength_nm=633.0)
    with pytest.raises(DomainError):
        ZernikeExpansion(terms=((2, 0, 0.1),), wavelength_nm=0.0)


def test_expansion_accessors():
    exp = ZernikeExpansion(terms=((2, 0, 0.3), (3, 1, -0.1)), wavelength_nm=633.0)
    assert exp.coefficient(2, 0) == 0.3
    assert exp.coefficient(4, 0) == 0.0
    doubled = exp.scaled(2.0)
    assert doubled.coefficient(3, 1) == pytest.approx(-0.2)
    assert doubled.wavelength_nm == 633.0
    moved = exp.scaled(1.0, wavelength_nm=370.0)
    assert moved.wavelength_nm == 370.0


def test_fit_recovers_coefficients():
    terms = ((2, 0, 0.12), (2, 2, -0.07), (3, 1, 0.05), (4, 0, -0.03), (5, -3, 0.02))
    truth = ZernikeExpansion(terms=terms, wavelength_nm=632.8)
    fitted = zernike_fit(PhaseMap.from_expansion(truth, size=256), degree=6)
    for n, m, v in terms:
        assert fitted.coefficient(n, m) == pytest.approx(v, abs=1e-9)
    # absent modes come back at numerical zero
    assert abs(fitted.coefficient(6, 0)) < 1e-9
    assert fitted.wavelength_nm == 632.8
    lo, hi = fitted.annulus
    assert lo < 0.01 and 0.99 < hi <= 1.0


def test_fit_then_eval_matches_input_map():
    truth = ZernikeExpansion(
        terms=((3, -1, 0.08), (4, 2, 0.04), (6, 0, -0.02)), wavelength_nm=632.8
    )
    pmap = PhaseMap.from_expansion(truth, size=256, annulus=(0.3, 1.0))
    fitted = zernike_fit(pmap, degree=8)
    rho, phi = pmap.grid_polar()
    resid = zernike_eval(fitted, rho, phi)[pmap.mask] - pmap.values[pmap.mask]
    assert np.abs(resid).max() < 1e-9


@settings(max_examples=30, deadline=None)
@given(degree=st.integers(0, 16), bore=st.floats(0.0, 0.5), seed=st.integers(0, 2**32 - 1))
def test_fit_roundtrip_on_annuli(degree, bore, seed):
    """Fit and eval round-trip on annular masks, in agreement with lstsq.

    Coefficients are up to 0.1 waves, the scale of a mirror figure. The
    recovery error of any least-squares fit is the rounding of the map
    values times cond(A): about 1.5e-10 waves per wave of coefficient at
    degree 16 with a 0.5 bore, where cond(A) is 2500.
    """
    rng = np.random.default_rng(seed)
    terms = tuple((n, m, rng.uniform(-0.1, 0.1))
                  for n in range(degree + 1) for m in range(-n, n + 1, 2))
    pmap = PhaseMap.from_expansion(ZernikeExpansion(terms=terms, wavelength_nm=632.8),
                                   size=96, annulus=(bore, 1.0))
    fitted = zernike_fit(pmap, degree=degree)
    assert [(n, m) for n, m, _ in fitted.terms] == [(n, m) for n, m, _ in terms]
    got = np.array([v for _, _, v in fitted.terms])
    assert np.abs(got - [v for _, _, v in terms]).max() < 1e-10
    assert np.abs(got - oracles.zernike_fit_lstsq(pmap, degree)).max() < 1e-10


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(24, 72), cols=st.integers(24, 72), degree=st.integers(0, 8),
       keep=st.floats(0.5, 0.95), seed=st.integers(0, 2**32 - 1))
def test_fit_on_non_square_random_masks_matches_lstsq(rows, cols, degree, keep, seed):
    """The moment assembly on rows != cols grids with asymmetric masks.

    The data is a random expansion plus noise, so the least-squares
    weighting matters: a swapped x/y axis in the moment tables, or a mask
    read transposed, moves the coefficients far beyond the bound.
    """
    assume(rows != cols)
    rng = np.random.default_rng(seed)
    terms = tuple((n, m, rng.uniform(-0.1, 0.1))
                  for n in range(degree + 1) for m in range(-n, n + 1, 2))
    rho, phi = PhaseMap(values=np.zeros((rows, cols)), mask=np.zeros((rows, cols), bool),
                        wavelength_nm=632.8).grid_polar()
    # random pixels, with the lower right quadrant thinned further
    mask = rng.uniform(size=(rows, cols)) < keep
    mask[rows // 2:, cols // 2:] &= rng.uniform(size=(rows - rows // 2, cols - cols // 2)) < 0.5
    exp = ZernikeExpansion(terms=terms, wavelength_nm=632.8)
    values = oracles.zernike_sum(exp, rho, phi) + rng.normal(0.0, 0.02, (rows, cols))
    pmap = PhaseMap(values=np.where(mask, values, np.nan), mask=mask, wavelength_nm=632.8)
    fitted = zernike_fit(pmap, degree=degree)
    got = np.array([v for _, _, v in fitted.terms])
    assert np.abs(got - oracles.zernike_fit_lstsq(pmap, degree)).max() < 1e-10


def test_fit_allocates_no_design_matrix():
    # a (pixels x terms) design matrix alone is 109 MB on this map; the
    # moment assembly needs a few map-sized arrays
    rng = np.random.default_rng(11)
    terms = tuple((n, m, rng.uniform(-0.1, 0.1)) for n in range(11) for m in range(-n, n + 1, 2))
    pmap = PhaseMap.from_expansion(ZernikeExpansion(terms=terms, wavelength_nm=632.8), size=512)
    tracemalloc.start()
    try:
        zernike_fit(pmap, degree=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 30e6


def test_fit_refuses_a_thin_ring():
    # on a ring the radial polynomials of one azimuthal order are nearly
    # parallel; lstsq would return its minimum-norm pick among many fits
    pmap = PhaseMap.from_expansion(ZernikeExpansion(terms=((2, 0, 0.1),), wavelength_nm=633.0),
                                   size=128, annulus=(0.95, 1.0))
    with pytest.raises(DomainError, match="degree-10.*not independent"):
        zernike_fit(pmap, degree=10)
    assert zernike_fit(pmap, degree=2).coefficient(2, 0) == pytest.approx(0.1, abs=1e-9)


def test_fit_refuses_an_unsettled_refinement():
    # the moment assembly maps Legendre products to Zernike terms through a
    # transform whose entries grow with the degree; where refinement cannot
    # make up its rounding, the fit raises instead of returning the drift
    rng = np.random.default_rng(1)
    terms = tuple((n, m, rng.uniform(-0.1, 0.1)) for n in range(25) for m in range(-n, n + 1, 2))
    pmap = PhaseMap.from_expansion(ZernikeExpansion(terms=terms, wavelength_nm=632.8), size=128)
    with pytest.raises(ConvergenceError, match="degree-24 Zernike fit still moving"):
        zernike_fit(pmap, degree=24)


def test_fit_rejects_tiny_masks():
    values = np.zeros((8, 8))
    mask = np.zeros((8, 8), dtype=bool)
    mask[4, 4] = True
    with pytest.raises(DomainError):
        zernike_fit(PhaseMap(values=values, mask=mask, wavelength_nm=633.0), degree=4)
    with pytest.raises(DomainError):
        zernike_fit(PhaseMap.from_expansion(
            ZernikeExpansion(terms=(), wavelength_nm=633.0), size=64), degree=-1)


@pytest.mark.parametrize(
    "n, m, pv, rms",
    [
        (2, 0, 2.0, 1.0 / math.sqrt(3.0)),
        (2, 2, 2.0, 1.0 / math.sqrt(6.0)),
        (3, 1, 2.0, 1.0 / math.sqrt(8.0)),
        (4, 0, 1.5, 1.0 / math.sqrt(5.0)),
    ],
)
def test_pv_rms_closed_forms(n, m, pv, rms):
    a = 0.37
    exp = ZernikeExpansion(terms=((n, m, a),), wavelength_nm=633.0)
    got_pv, got_rms = pv_rms(exp)
    # PV comes from a dense sampling; interior extremes (spherical) are
    # resolution-limited, boundary extremes are exact
    assert got_pv == pytest.approx(a * pv, abs=1e-5)
    assert got_rms == pytest.approx(a * rms, abs=1e-9)


def test_pv_rms_on_annulus_matches_dense_sampling():
    annulus = (0.25, 0.9)
    exp = ZernikeExpansion(
        terms=((2, 0, 0.1), (3, 1, -0.06), (4, 0, 0.04), (4, -4, 0.03)),
        wavelength_nm=633.0,
        annulus=annulus,
    )
    _, rms = pv_rms(exp)
    # midpoint rule in u = rho^2 gives uniform area weights; phi sampling
    # is exact for the trigonometric content once n_phi > 2 * max |m|
    u = (np.arange(20_000) + 0.5) / 20_000 * (annulus[1] ** 2 - annulus[0] ** 2) + annulus[0] ** 2
    phi = np.arange(64) * 2.0 * math.pi / 64
    rr, pp = np.meshgrid(np.sqrt(u), phi, indexing="ij")
    vals = zernike_eval(exp, rr, pp)
    brute = math.sqrt(np.mean(vals**2) - np.mean(vals) ** 2)
    assert rms == pytest.approx(brute, abs=1e-8)


def test_pv_rms_rejects_anything_but_an_expansion():
    exp = ZernikeExpansion(terms=((2, 2, 0.2),), wavelength_nm=633.0)
    with pytest.raises(DomainError, match="expected a ZernikeExpansion, got PhaseMap"):
        pv_rms(PhaseMap.from_expansion(exp, size=64))
    with pytest.raises(DomainError, match="got ndarray"):
        pv_rms(np.zeros(4))


def test_remove_misalignment():
    terms = tuple((n, m, 0.1) for n, m in MISALIGNMENT_TERMS) + ((2, 2, 0.5), (3, 1, 0.4))
    cleaned = remove_misalignment(ZernikeExpansion(terms=terms, wavelength_nm=633.0))
    for n, m in MISALIGNMENT_TERMS:
        assert cleaned.coefficient(n, m) == 0.0
    assert cleaned.coefficient(2, 2) == 0.5
    assert cleaned.coefficient(3, 1) == 0.4


def test_plate_and_single_pass_scalings():
    exp = ZernikeExpansion(terms=((3, 1, 0.2),), wavelength_nm=632.8)
    assert make_phase_plate(exp).coefficient(3, 1) == pytest.approx(-0.2)
    assert single_pass(exp).coefficient(3, 1) == pytest.approx(0.1)
    with pytest.raises(DomainError, match="got PhaseMap"):
        single_pass(PhaseMap.from_expansion(exp, size=64))
    with pytest.raises(DomainError):
        make_phase_plate([1.0, 2.0])


@settings(max_examples=30, deadline=None)
@given(rows=st.integers(48, 160), cols=st.integers(48, 160), degree=st.integers(0, 10),
       bore=st.floats(0.0, 0.4), noise=st.floats(0.0, 0.01), seed=st.integers(0, 2**32 - 1))
def test_single_pass_of_the_fit_is_the_fit_of_the_halved_map(rows, cols, degree, bore, noise,
                                                             seed):
    """Halving the fit of a double-pass map equals fitting the halved map, bitwise.

    The zernike command halves after fitting. Scaling by 0.5 is exact and
    commutes with every rounding of the fit, refinement steps included, so
    the coefficients and the fitted annulus must agree to the bit.
    """
    assume(rows != cols)
    rng = np.random.default_rng(seed)
    terms = tuple((n, m, rng.uniform(-0.1, 0.1))
                  for n in range(degree + 1) for m in range(-n, n + 1, 2))
    rho, phi = PhaseMap(values=np.zeros((rows, cols)), mask=np.zeros((rows, cols), bool),
                        wavelength_nm=632.8).grid_polar()
    mask = (rho >= bore) & (rho <= 1.0)
    exp = ZernikeExpansion(terms=terms, wavelength_nm=632.8)
    values = zernike_eval(exp, rho, phi) + rng.normal(0.0, noise, (rows, cols))
    values = np.where(mask, values, np.nan)
    halved = single_pass(zernike_fit(PhaseMap(values, mask, 632.8), degree=degree))
    direct = zernike_fit(PhaseMap(0.5 * values, mask, 632.8), degree=degree)
    assert halved.annulus == direct.annulus and halved.wavelength_nm == direct.wavelength_nm
    assert [(n, m) for n, m, _ in halved.terms] == [(n, m) for n, m, _ in direct.terms]
    assert (np.array([v for _, _, v in halved.terms]).tobytes()
            == np.array([v for _, _, v in direct.terms]).tobytes())


def test_fused_silica_reference_indices():
    model = fused_silica()
    assert model.index(632.8) == pytest.approx(1.457017929, abs=1e-8)
    assert model.index(587.6) == pytest.approx(1.458462342, abs=1e-8)
    assert model.source
    with pytest.raises(DomainError):
        model.index(100.0)
    with pytest.raises(DomainError):
        model.index(5000.0)


def test_fused_silica_is_read_once():
    # a plate-compensated report asks for it on every job; the model is frozen
    assert fused_silica() is fused_silica()


def test_sellmeier_file_requires_provenance(tmp_path):
    body = (
        "b1=0.6961663\nb2=0.4079426\nb3=0.8974794\n"
        "c1_um2=0.0046791\nc2_um2=0.0135121\nc3_um2=97.9340025\n"
        "lambda_min_nm=210\nlambda_max_nm=3710\n"
    )
    bare = tmp_path / "bare.txt"
    bare.write_text(body)
    with pytest.raises(ProvenanceError):
        SellmeierModel.from_file(bare)
    incomplete = tmp_path / "incomplete.txt"
    incomplete.write_text("# source: somebody\nb1=0.7\n")
    with pytest.raises(FormatError):
        SellmeierModel.from_file(incomplete)
    good = tmp_path / "good.txt"
    good.write_text("# source: somebody\n" + body)
    model = SellmeierModel.from_file(good)
    assert model.index(632.8) == pytest.approx(1.457017929, abs=1e-6)


def test_rescale_wavelength_reference_factors():
    plate = ZernikeExpansion(terms=((3, 1, 1.0),), wavelength_nm=632.8)
    model = fused_silica()
    residual_uv = rescale_wavelength(plate, 369.5, model)
    assert residual_uv.coefficient(3, 1) == pytest.approx(0.063246936, abs=1e-8)
    assert residual_uv.wavelength_nm == 369.5
    residual_duv = rescale_wavelength(plate, 251.8, model)
    assert residual_duv.coefficient(3, 1) == pytest.approx(0.271987232, abs=1e-8)
    # at the design wavelength the plate cancels the aberration exactly
    assert rescale_wavelength(plate, 632.8, model).coefficient(3, 1) == 0.0
    with pytest.raises(DomainError):
        rescale_wavelength(3.0, 369.5, model)


def test_expansion_file_roundtrip(tmp_path):
    exp = ZernikeExpansion(
        terms=((2, 0, 0.123456789), (3, -1, -0.04)),
        wavelength_nm=632.8,
        annulus=(0.1, 0.97),
    )
    path = tmp_path / "fit.txt"
    save_expansion(exp, path)
    back = load_expansion(path)
    assert back.wavelength_nm == 632.8
    assert back.annulus == (0.1, 0.97)
    for n, m, v in exp.terms:
        assert back.coefficient(n, m) == pytest.approx(v, abs=1e-12)
    headerless = tmp_path / "headerless.txt"
    headerless.write_text("2 0 0.1\n")
    with pytest.raises(FormatError):
        load_expansion(headerless)
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("# wavelength_nm: 633\n2 0\n")
    with pytest.raises(FormatError):
        load_expansion(ragged)
    # a value that is not a number names the file, and a row its line
    for text, where, message in [
            ("# wavelength_nm: x\n2 0 0.1\n", "", "could not convert string to float: 'x'"),
            ("# wavelength_nm: 633\n2.5 0 0.1\n", ":2",
             "invalid literal for int() with base 10: '2.5'")]:
        ragged.write_text(text)
        with pytest.raises(FormatError) as err:
            load_expansion(ragged)
        assert str(err.value) == f"{ragged}{where}: {message}"


@pytest.mark.parametrize("annulus", [(0.5, 0.5), (0.8, 0.5), (-0.1, 0.5), (0.5, 1.2), (0.5,)])
def test_expansion_refuses_an_annulus_that_is_not_inner_below_outer(annulus):
    # (0.5, 0.5) left the moments no area, and (0.8, 0.5) was scored as given
    with pytest.raises(DomainError, match=r"0 <= inner < outer <= 1"):
        ZernikeExpansion(terms=((2, 2, 0.1),), wavelength_nm=633.0, annulus=annulus)


def test_phase_map_file_roundtrip(tmp_path):
    exp = ZernikeExpansion(terms=((2, 2, 0.2), (4, 0, -0.05)), wavelength_nm=632.8)
    pmap = PhaseMap.from_expansion(exp, size=96, annulus=(0.2, 1.0))
    path = tmp_path / "map.txt"
    oracles.save_phase_map(pmap, path)
    back = load_phase_map(path)
    assert back.wavelength_nm == 632.8
    assert np.array_equal(back.mask, pmap.mask)
    assert np.allclose(back.values[back.mask], pmap.values[pmap.mask], atol=1e-10)


@pytest.mark.parametrize("value, message", [
    ("[633]", "float() argument must be a string or a real number, not 'list'"),
    ("null", "float() argument must be a string or a real number, not 'NoneType'"),
    ('"x"', "could not convert string to float: 'x'"),
    ("true", "must be a JSON number, not 'bool'"),
    ('"633"', "must be a JSON number, not 'str'"),
], ids=["list", "null", "word", "boolean", "numeral-string"])
def test_phase_map_header_wavelength_that_is_no_number_names_the_file(tmp_path, value,
                                                                       message):
    # the JSON header may hold any value where the wavelength belongs
    path = tmp_path / "map.txt"
    path.write_text(f'# {{"cols": 2, "rows": 1, "wavelength_nm": {value}}}\n0.1 0.2\n')
    with pytest.raises(FormatError) as err:
        load_phase_map(path)
    assert str(err.value) == f"{path}: wavelength_nm: {message}"


def test_phase_map_validation():
    with pytest.raises(DomainError):
        PhaseMap(values=np.zeros((4, 4)), mask=np.zeros((4, 3), bool), wavelength_nm=633.0)
    values = np.zeros((4, 4))
    values[1, 1] = np.nan
    mask = np.ones((4, 4), bool)
    with pytest.raises(DomainError):
        PhaseMap(values=values, mask=mask, wavelength_nm=633.0)
    with pytest.raises(DomainError):
        PhaseMap(values=np.zeros((4, 4)), mask=np.ones((4, 4), bool), wavelength_nm=-1.0)


def test_phase_map_from_expansion_grid():
    exp = ZernikeExpansion(terms=((2, 0, 1.0),), wavelength_nm=633.0)
    pmap = PhaseMap.from_expansion(exp, size=128, annulus=(0.3, 0.9))
    rho, phi = pmap.grid_polar()
    assert np.array_equal(pmap.mask, (rho >= 0.3) & (rho <= 0.9))
    expected = zernike_eval(exp, rho, phi)
    assert np.allclose(pmap.values[pmap.mask], expected[pmap.mask], atol=1e-13)
    assert np.all(np.isnan(pmap.values[~pmap.mask]))
