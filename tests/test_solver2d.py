"""Axisymmetric solver: closed forms, level extraction, conservation."""

import math

import numpy as np
import pytest

from pcapflow import geometry, radial, solver2d
from pcapflow.solver2d import (
    Field2D,
    LevelRangeError,
    NonMonotoneRayError,
    Solver2DError,
    ellipsoid_domain,
    extract_level,
    field_from_radial,
    flux_profile,
    solve_2d,
    sphere_domain,
)
from pcapflow.verify import write_csv

from conftest import midband


@pytest.fixture(scope="module")
def sphere_oracle():
    """Regularized radial solution matching the sphere_field fixture."""
    return radial.solve_wp_eps(
        geometry.euclidean(3), 1.0, 3.0, 1.5, 1e-4, phi_R=0.5 * math.log(3.0)
    )


class TestDomains:
    def test_sphere_profile(self):
        dom = sphere_domain(1.0, 4.0)
        th = np.linspace(0.0, math.pi, 9)
        assert np.allclose(dom.rho(th), 1.0)
        assert np.allclose(dom.drho(th), 0.0)
        assert dom.R == 4.0

    def test_ellipsoid_semi_axes(self):
        dom = ellipsoid_domain(1.3, 1.0, R=4.0)
        assert dom.rho(np.array([0.0]))[0] == pytest.approx(1.3, rel=1e-12)
        assert dom.rho(np.array([math.pi / 2.0]))[0] == pytest.approx(1.0, rel=1e-12)
        assert dom.rho(np.array([math.pi]))[0] == pytest.approx(1.3, rel=1e-12)
        # profile derivative vanishes on the axis and at the equator
        for th in (0.0, math.pi / 2.0, math.pi):
            assert dom.drho(np.array([th]))[0] == pytest.approx(0.0, abs=1e-12)

    def test_shell_must_enclose_inner_boundary(self):
        with pytest.raises(Solver2DError):
            ellipsoid_domain(1.3, 1.0, R=1.2)


class TestHarmonicClosedForm:
    """p = 2 on the round annulus [1, 2] has the exact solution u = 1/r."""

    @staticmethod
    def _error(shape):
        f = solve_2d(sphere_domain(1.0, 2.0), p=2.0, u_R=0.5, shape=shape, eps=1e-3)
        assert f.converged
        # the energy is quadratic at p = 2: the first step solves it, and the
        # second step's decrement shows that
        assert f.outer_iterations == 2 and f.history[1][1] < 1e-13
        return float(np.max(np.abs(f.u - 1.0 / f.r)))

    def test_second_order_convergence(self):
        e32 = self._error((32, 16))
        e64 = self._error((64, 32))
        assert e32 < 5e-3
        assert e64 < 0.35 * e32


class TestMap:
    """Properties every radial map of the mapped grid must keep."""

    DOMAINS = {
        "sphere": (sphere_domain(1.0, 4.0), 4.0 * math.pi / 3.0 * (4.0**3 - 1.0)),
        "ellipsoid": (ellipsoid_domain(1.3, 1.0, R=4.0), 4.0 * math.pi / 3.0 * (4.0**3 - 1.3 * 1.0**2)),
    }

    @pytest.mark.parametrize("R", [4.0, 7.3])
    def test_boundary_rows(self, R):
        dom = ellipsoid_domain(1.3, 1.0, R=R)
        f = Field2D(dom, 1.5, 1e-3, 0.5, np.ones((33, 17)), True, 0.0)
        assert np.array_equal(f.r[0], dom.rho(f.theta))
        assert np.all(f.r[-1] == R)

    def test_derived_radii_are_the_nodal_radii(self):
        f = solve_2d(ellipsoid_domain(1.3, 1.0, R=4.0), p=2.0, u_R=0.25, shape=(32, 16))
        assert f.derived()["r"] is f.r

    def test_seeded_and_solved_fields_share_the_nodes(self):
        dom = ellipsoid_domain(1.3, 1.0, R=4.0)
        pot = radial.solve_wp(geometry.euclidean(3), 1.0, 4.0, 1.5)
        seeded = field_from_radial(dom, (32, 16), pot)
        solved = solve_2d(dom, p=1.5, u_R=0.25, shape=(32, 16), max_outer=1)
        assert np.array_equal(seeded.r, solved.r)
        assert np.array_equal(seeded.u, pot.u(solved.r))

    @pytest.mark.parametrize("name", sorted(DOMAINS))
    def test_mesh_volume_converges(self, name):
        dom, volume = self.DOMAINS[name]
        errs = [
            abs(2.0 * math.pi * solver2d._Mesh(dom, *shape).vol.sum() - volume) / volume
            for shape in ((32, 16), (64, 32), (128, 64))
        ]
        assert errs[0] < 1e-6
        assert errs[1] < 0.1 * errs[0] and errs[2] < 0.1 * errs[1]


class TestNewtonKernels:
    """The mesh's load and Hessian are the derivatives of the discrete energy."""

    EPS = 1e-2
    H = 1e-6

    @pytest.fixture(scope="class")
    def setup(self):
        dom = ellipsoid_domain(1.3, 1.0, R=4.0)
        mesh = solver2d._Mesh(dom, 16, 16)
        sigma, theta = solver2d._nodes((16, 16))
        r = solver2d._map(dom, sigma[:, None], theta[None, :])[0]
        noise = np.random.default_rng(7).standard_normal(r.shape)
        return mesh, (1.0 / r + 0.05 * noise).ravel()

    def _energy(self, mesh, v, p):
        vr, vt = mesh.grad(v)
        return float(np.sum(mesh.vol * (vr * vr + vt * vt + self.EPS**2) ** (p / 2.0))) / p

    def _kernels(self, mesh, v, p):
        """(coef, u_r, u_theta, s) at v, as the Newton step forms them."""
        ur, ut = mesh.grad(v)
        s = ur * ur + ut * ut + self.EPS**2
        return mesh.vol * s ** ((p - 2.0) / 2.0), ur, ut, s

    def _central(self, f, v, nodes):
        """Central differences of f at v in each of the given nodal values."""
        cols = []
        for k in nodes:
            up, dn = v.copy(), v.copy()
            up[k] += self.H
            dn[k] -= self.H
            cols.append((f(up) - f(dn)) / (2.0 * self.H))
        return np.array(cols)

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    def test_load_is_the_energy_gradient(self, setup, p):
        mesh, v = setup
        coef, ur, ut, _ = self._kernels(mesh, v, p)
        load = mesh.load(coef, ur, ut)[mesh.inner]
        nodes = range(mesh.inner.start, mesh.inner.stop)
        fd = self._central(lambda x: self._energy(mesh, x, p), v, nodes)
        assert np.max(np.abs(fd - load)) < 1e-8 * np.max(np.abs(load))

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    def test_hessian_is_the_load_jacobian(self, setup, p):
        mesh, v = setup
        coef, ur, ut, s = self._kernels(mesh, v, p)
        band = mesh.hessian_band(coef, ur, ut, s, p)
        n = mesh.n_inner
        dense = np.zeros((n, n))
        for d in range(band.shape[0]):
            j = np.arange(n - d)
            dense[j + d, j] = band[d, : n - d]
        dense = np.tril(dense) + np.tril(dense, -1).T
        nodes = range(mesh.inner.start, mesh.inner.stop)
        fd = self._central(lambda x: mesh.load(*self._kernels(mesh, x, p)[:3])[mesh.inner], v, nodes)
        assert np.max(np.abs(fd - dense)) < 1e-6 * np.max(np.abs(dense))


class TestSolveValidation:
    def test_parameter_guards(self):
        dom = sphere_domain(1.0, 2.0)
        with pytest.raises(Solver2DError, match="too coarse"):
            solve_2d(dom, p=1.5, u_R=0.5, shape=(8, 8))
        with pytest.raises(Solver2DError, match="p="):
            solve_2d(dom, p=2.5, u_R=0.5)
        with pytest.raises(Solver2DError, match="u_R"):
            solve_2d(dom, p=1.5, u_R=0.0)
        with pytest.raises(Solver2DError, match="u_R"):
            solve_2d(dom, p=1.5, u_R=1.0)
        with pytest.raises(Solver2DError, match="eps"):
            solve_2d(dom, p=1.5, u_R=0.5, eps=1e-12)

    def test_iteration_cap_flags_not_converged(self):
        f = solve_2d(
            sphere_domain(1.0, 2.0), p=1.3, u_R=0.1, shape=(16, 16), max_outer=1
        )
        assert not f.converged


class TestNewtonNearOne:
    """The p -> 1 regime: the ellipsoid at 64 x 32 for p = 1.1 and 1.05."""

    @pytest.fixture(scope="class", params=[1.1, 1.05])
    def field(self, request):
        dom = ellipsoid_domain(1.3, 1.0, R=4.0)
        return solve_2d(dom, p=request.param, u_R=0.05, shape=(64, 32), tol=1e-9)

    def test_converges(self, field):
        assert field.converged
        assert field.residual_rel < 1e-9
        assert field.history[-1][1] == field.residual_rel
        flux = flux_profile(field)
        assert (flux.max() - flux.min()) / abs(flux.mean()) < 1e-10
        assert np.all(field.u > 0.0) and np.all(field.u <= 1.0)

    def test_energy_never_increases(self, field):
        energy = np.array([e for e, _, _ in field.history])
        assert np.all(np.diff(energy) <= 4.0 * np.spacing(energy[:-1]))
        assert all(0.0 < step <= 1.0 for _, _, step in field.history)

    def test_one_gradient_per_energy_evaluation(self, monkeypatch):
        calls = {"grad": 0, "load": 0}

        def counted(name):
            method = getattr(solver2d._Mesh, name)

            def wrapper(mesh, *args):
                calls[name] += 1
                return method(mesh, *args)

            monkeypatch.setattr(solver2d._Mesh, name, wrapper)

        counted("grad")
        counted("load")
        field = solve_2d(ellipsoid_domain(1.3, 1.0, R=4.0), p=1.1, u_R=0.05, shape=(64, 32), tol=1e-9)
        assert field.converged
        grids = (*field.coarse, field)
        assert len(grids) == 2
        # on each grid the initial energy, then one per line-search trial
        trials = sum(1 + round(math.log2(1.0 / step)) for f in grids for _, _, step in f.history)
        assert calls["grad"] == len(grids) + trials
        # on each grid one load per Newton step, one at the returned iterate for the flux
        assert calls["load"] == sum(f.outer_iterations + 1 for f in grids)


class TestGridSequence:
    """solve_2d solves the half grids first and starts each finer grid from
    the coarser solution, prolonged by cubic interpolation of w."""

    @pytest.mark.parametrize("p, shape", [(1.1, (64, 32)), (1.25, (96, 48))])
    def test_matches_the_profile_start(self, p, shape):
        dom = ellipsoid_domain(1.3, 1.0, R=4.0)
        sequenced = solve_2d(dom, p=p, u_R=0.05, shape=shape)
        cold = solver2d._newton(dom, p, 0.05, shape, min(1e-3, 1.0 / shape[0]), 1e-9, 80)
        assert sequenced.converged and cold.converged
        assert np.max(np.abs(sequenced.u - cold.u) / cold.u) <= 1e-13
        half = sequenced.coarse[0]
        assert len(sequenced.coarse) == 1 and half.coarse == ()
        assert sequenced.newton_steps == [[*half.shape, half.outer_iterations], [*shape, sequenced.outer_iterations]]
        assert half.shape == (shape[0] // 2, shape[1] // 2)

    @pytest.mark.parametrize("shape", [(16, 16), (30, 64), (48, 30), (63, 32)])
    def test_grids_that_cannot_be_halved_solve_alone(self, shape):
        f = solve_2d(sphere_domain(1.0, 2.0), p=1.5, u_R=0.5, shape=shape, max_outer=1)
        assert f.coarse == () and f.newton_steps == [[*shape, 1]]

    def test_warm_start_at_small_p_on_a_fine_grid(self):
        """384 x 192 at p = 1.05: the cold start takes 24 steps on this grid."""
        tol = 1e-10
        f = solve_2d(ellipsoid_domain(1.3, 1.0, R=4.0), p=1.05, u_R=0.05, shape=(384, 192), tol=tol)
        assert f.converged and f.residual_rel < tol
        assert f.outer_iterations <= 5
        flux = flux_profile(f)
        assert (flux.max() - flux.min()) / abs(flux.mean()) < 1e-10

    def test_prolongation_is_exact_for_cubics(self):
        sigma, theta = solver2d._nodes((32, 16))
        fine_sigma, fine_theta = solver2d._nodes((64, 32))
        for f in (lambda s, t: 2.0 - s + 3.0 * s**2 - 5.0 * s**3 + 0.0 * t,
                  lambda s, t: 0.5 + t - 0.7 * t**2 + 0.2 * t**3 + 0.0 * s,
                  lambda s, t: (1.0 + s - s**3) * (t - t**3 / 9.0)):
            coarse = f(sigma[:, None], theta[None, :])
            fine = solver2d._prolong(coarse)
            exact = f(fine_sigma[:, None], fine_theta[None, :])
            assert np.max(np.abs(fine - exact)) < 1e-12 * np.max(np.abs(exact))
            assert np.array_equal(fine[::2, ::2], coarse)


class TestSphereField:
    """128 x 64 regularized solve on [1, 3] against the radial oracle."""

    def test_matches_radial_solution(self, sphere_field, sphere_oracle):
        exact = sphere_oracle.u(sphere_field.r)
        assert np.max(np.abs(sphere_field.u - exact)) < 1e-4

    def test_flux_is_conserved(self, sphere_field):
        flux = flux_profile(sphere_field)
        spread = (flux.max() - flux.min()) / abs(flux.mean())
        assert spread < 2e-6

    def test_levels_are_round_and_umbilic(self, sphere_field, sphere_oracle):
        for t in midband(sphere_field, num=4):
            curve = sphere_field.level(t)
            assert curve.hring_sq.max() < 1e-5
            assert np.max(np.abs(curve.kappa_m - curve.kappa_phi)) < 5e-3
            r_t = sphere_oracle.level_radius(t)
            assert curve.area == pytest.approx(4.0 * math.pi * r_t**2, rel=1e-3)
            assert np.max(np.abs(curve.r - r_t)) < 5e-4

    def test_gauss_bonnet_quantization(self, sphere_field):
        for t in midband(sphere_field, num=4):
            assert sphere_field.level(t).chi_proxy == pytest.approx(2.0, abs=0.02)

    def test_degeneracy_indicator_small(self, sphere_field):
        for t in midband(sphere_field, num=3):
            assert sphere_field.level(t).theta_eps.max() < 1e-6


class TestEllipsoidField:
    def test_poles_are_umbilic(self, ellipsoid_128):
        for t in midband(ellipsoid_128, num=3):
            curve = ellipsoid_128.level(t)
            assert curve.hring_sq[0] == 0.0
            assert curve.hring_sq[-1] == 0.0

    def test_levels_round_out_along_the_flow(self, ellipsoid_128):
        ts = midband(ellipsoid_128, num=7)
        ints = [c.integrate(c.hring_sq) for c in (ellipsoid_128.level(t) for t in ts)]
        assert all(b < a for a, b in zip(ints, ints[1:]))
        assert ints[0] > 1e-4  # genuinely non-round inner levels

    def test_gauss_bonnet_both_resolutions(self, ellipsoid_fields):
        worst = {}
        for shape, f in ellipsoid_fields.items():
            worst[shape] = max(
                abs(f.level(t).chi_proxy / 2.0 - 1.0) for t in midband(f, num=7)
            )
            assert worst[shape] < 0.01
        assert worst[(256, 128)] < worst[(128, 64)]

    def test_gauss_bonnet_near_one(self):
        """p = 1.1 on 192 x 96 at the solve_2d suite's five levels, 20% to 80%
        of the w range: needs the derived fields differentiated through w."""
        f = solve_2d(ellipsoid_domain(1.3, 1.0, R=4.0), p=1.1, u_R=0.05, shape=(192, 96), tol=1e-10)
        assert f.converged
        hi = f.w_range()[1]
        for t in np.linspace(0.2 * hi, 0.8 * hi, 5):
            assert abs(f.level(t).chi_proxy / 2.0 - 1.0) < 0.01

    def test_nested_grid_agreement(self, ellipsoid_fields):
        coarse = ellipsoid_fields[(128, 64)]
        fine = ellipsoid_fields[(256, 128)]
        assert np.max(np.abs(fine.u[::2, ::2] - coarse.u)) < 5e-4

    def test_flux_is_conserved(self, ellipsoid_fields):
        for f in ellipsoid_fields.values():
            flux = flux_profile(f)
            assert (flux.max() - flux.min()) / abs(flux.mean()) < 2e-6


class TestLevelExtraction:
    def test_range_errors(self, sphere_field):
        lo, hi = sphere_field.w_range()
        with pytest.raises(LevelRangeError):
            extract_level(sphere_field, lo - 0.1)
        with pytest.raises(LevelRangeError):
            extract_level(sphere_field, hi + 0.1)
        # in a batch, the error names the level outside the range
        with pytest.raises(LevelRangeError, match=f"t={hi + 0.1}"):
            extract_level(sphere_field, [0.5 * (lo + hi), hi + 0.1])

    def test_batch_equals_single_levels(self, ellipsoid_128):
        ts = midband(ellipsoid_128, num=7)
        batch = ellipsoid_128.level(ts)
        assert batch.t.shape == (7,) and batch.r.shape == (7, 65)
        for k, t in enumerate(ts):
            one = extract_level(ellipsoid_128, t)
            assert one.t == t and np.array_equal(one.theta, batch.theta)
            for name in ("r", "grad", "grad_tangential", "H", "H_tangential", "kappa_m", "kappa_phi",
                         "hring_sq", "theta_eps", "measure", "area", "willmore", "chi_proxy"):
                assert np.array_equal(getattr(one, name), getattr(batch, name)[k]), name

    def test_ray_search_matches_searchsorted(self, sphere_field):
        der = sphere_field.derived()
        w, r = der["w"], der["r"]
        cols = np.arange(w.shape[1])
        lo, hi = sphere_field.w_range()
        for t in lo + (hi - lo) * np.array([1e-9, 0.3, 0.6, 1.0 - 1e-9]):
            k = np.array([min(max(int(np.searchsorted(w[:, j], t)), 1), w.shape[0] - 1) for j in cols])
            frac = (t - w[k - 1, cols]) / (w[k, cols] - w[k - 1, cols])
            expected = r[k - 1, cols] + frac * (r[k, cols] - r[k - 1, cols])
            assert np.array_equal(extract_level(sphere_field, t).r, expected)

    def test_non_monotone_ray_detected(self):
        dom = sphere_domain(1.0, 3.0)
        sig = np.linspace(0.0, 1.0, 17)
        u = 1.0 - 0.5 * sig + 0.3 * np.sin(2.0 * math.pi * sig)
        field = Field2D(dom, 1.5, 1e-3, 0.5, np.tile(u[:, None], (1, 17)), True, 0.0)
        lo, hi = field.w_range()
        with pytest.raises(NonMonotoneRayError):
            extract_level(field, 0.5 * (lo + hi))


class TestFieldFromRadial:
    def test_nodal_values_are_exact(self):
        pot = radial.solve_wp_eps(geometry.euclidean(3), 1.0, 4.0, 1.5, 1e-3)
        f = field_from_radial(sphere_domain(1.0, 4.0), (32, 16), pot)
        exact = np.array([pot.u(x) for x in f.r.ravel()]).reshape(f.r.shape)
        assert np.max(np.abs(f.u - exact)) < 1e-14

    def test_divergence_identities_refine(self):
        pot = radial.solve_wp_eps(geometry.euclidean(3), 1.0, 4.0, 1.5, 1e-3)
        dom = sphere_domain(1.0, 4.0)
        norms = []
        for shape in ((32, 16), (64, 32)):
            res = solver2d.divergence_residuals(
                field_from_radial(dom, shape, pot), alpha=2.0
            )
            norms.append(res["J"]["rms"] / res["J"]["scale"])
        order = math.log2(norms[0] / norms[1])
        assert order > 1.5


class TestCsvWriters:
    def test_field_csv(self, tmp_path):
        f = solve_2d(sphere_domain(1.0, 2.0), p=2.0, u_R=0.5, shape=(16, 16))
        path = tmp_path / "field.csv"
        write_csv(path, *f.table())
        lines = path.read_text().splitlines()
        assert lines[0] == "sigma,theta,u"
        assert len(lines) == 1 + 17 * 17

    def test_level_csv(self, sphere_field, tmp_path):
        t = float(midband(sphere_field, num=3)[0])
        curve = sphere_field.level(t)
        path = tmp_path / "level.csv"
        write_csv(path, *curve.table())
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,r,grad_w,H,kappa_m,kappa_phi"
        assert len(lines) == 1 + len(curve.theta)
        with pytest.raises(ValueError, match="single level"):
            sphere_field.level(midband(sphere_field, num=3)).table()
