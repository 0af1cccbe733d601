"""Axisymmetric solver: closed forms, level extraction, conservation."""

import math

import numpy as np
import pytest

from pcapflow import geometry, radial, solver2d
from pcapflow.numerics import ConfigError, SolverError, simpson_weights
from pcapflow.solver2d import (
    Field2D,
    LevelRangeError,
    NonMonotoneRayError,
    ellipsoid_domain,
    extract_level,
    field_from_radial,
    flux_profile,
    solve_2d,
    sphere_domain,
)
from pcapflow.verify import write_csv

from conftest import cell_by_cell, midband

NTHETA = [16, 17, 35, 48]  # theta intervals of the level-integral tests, even and odd


@pytest.fixture(scope="module")
def sphere_oracle():
    """Radial p-potential with the outer datum of the sphere_field fixture;
    regularizing it at the field's eps = 1e-4 moves u by 9e-8, under a
    percent of the 2-D error."""
    return radial.solve_wp(geometry.euclidean(3), 1.0, 3.0, 1.5, phi_R=0.5 * math.log(3.0))


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
        with pytest.raises(ValueError) as err:
            ellipsoid_domain(1.3, 1.0, R=1.2)
        assert not isinstance(err.value, SolverError)  # a bad argument, not a breakdown


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

    @staticmethod
    def _dense(band, n):
        """The symmetric matrix of the lower band ``band`` (LAPACK storage)."""
        dense = np.zeros((n, n))
        for d in range(band.shape[0]):
            j = np.arange(n - d)
            dense[j + d, j] = band[d, : n - d]
        return np.tril(dense) + np.tril(dense, -1).T

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
        dense = self._dense(mesh.hessian_band(coef, ur, ut, s, p), mesh.n_inner)
        nodes = range(mesh.inner.start, mesh.inner.stop)
        fd = self._central(lambda x: mesh.load(*self._kernels(mesh, x, p)[:3])[mesh.inner], v, nodes)
        assert np.max(np.abs(fd - dense)) < 1e-6 * np.max(np.abs(dense))

    @pytest.mark.parametrize("p", [1.1, 1.5, 2.0])
    def test_half_mesh_is_the_folded_full_mesh(self, p):
        """At a symmetric nodal vector the weighted half mesh's energy equals
        the full mesh's, and its load and Hessian are the full ones folded
        onto the half: S^T g and S^T H S, S the mirror extension."""
        dom = ellipsoid_domain(1.3, 1.0, R=4.0)
        Nsigma, Ntheta, c = 16, 16, 8
        full = solver2d._Mesh(dom, Nsigma, Ntheta)
        half = solver2d._Mesh(dom, Nsigma, Ntheta, half=True)
        sigma, theta = solver2d._nodes((Nsigma, Ntheta))
        r = solver2d._map(dom, sigma[:, None], theta[None, :])[0]
        noise = np.random.default_rng(3).standard_normal(r.shape)
        v = 1.0 / r + 0.05 * noise
        v[:, c + 1 :] = v[:, c - 1 :: -1]  # symmetric to the last bit
        # S maps the half grid's nodes to the full grid's: column j and its mirror
        S = np.zeros((v.size, (Nsigma + 1) * (c + 1)))
        for i in range(Nsigma + 1):
            for j in range(Ntheta + 1):
                S[i * (Ntheta + 1) + j, i * (c + 1) + min(j, Ntheta - j)] = 1.0
        S = S[full.inner, half.inner]
        v_half = v[:, : c + 1].ravel()
        assert self._energy(half, v_half, p) == pytest.approx(self._energy(full, v.ravel(), p), rel=1e-14)
        at_full, at_half = self._kernels(full, v.ravel(), p), self._kernels(half, v_half, p)
        load_full = full.load(*at_full[:3])[full.inner]
        load_half = half.load(*at_half[:3])[half.inner]
        assert np.max(np.abs(load_half - S.T @ load_full)) <= 1e-13 * np.max(np.abs(load_full))
        hess_full = self._dense(full.hessian_band(*at_full, p), full.n_inner)
        hess_half = self._dense(half.hessian_band(*at_half, p), half.n_inner)
        assert half.band_rows == c + 3
        assert np.max(np.abs(hess_half - S.T @ hess_full @ S)) <= 1e-13 * np.max(np.abs(hess_full))


class TestSolveValidation:
    def test_parameter_guards(self):
        # a bad argument is a ValueError, not a solver breakdown
        dom = sphere_domain(1.0, 2.0)
        for kwargs, match in (
            ({"p": 1.5, "u_R": 0.5, "shape": (8, 8)}, "too coarse"),
            ({"p": 2.5, "u_R": 0.5}, "p="),
            ({"p": 1.5, "u_R": 0.0}, "u_R"),
            ({"p": 1.5, "u_R": 1.0}, "u_R"),
            ({"p": 1.5, "u_R": 0.5, "eps": 1e-12}, "eps"),
        ):
            with pytest.raises(ValueError, match=match) as err:
                solve_2d(dom, **kwargs)
            assert not isinstance(err.value, SolverError)

    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_is_a_config_error(self, eps):
        # both pass a plain eps < 1e-8 test
        with pytest.raises(ConfigError, match=rf"^eps: eps={eps} must be finite and at least 1e-8"):
            solve_2d(sphere_domain(1.0, 4.0), p=1.5, u_R=0.5, shape=(16, 16), eps=eps)

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
        # the coarse grid of a sequence is its standalone solve, bit for bit
        alone = solve_2d(dom, p=p, u_R=0.05, shape=half.shape)
        assert np.array_equal(half.u, alone.u) and half.history == alone.history

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


def _egg():
    """rho = 1 + 0.1 cos(theta): star-shaped and axis-regular, not mirror-symmetric."""
    return solver2d.AxisymmetricDomain(
        rho=lambda th: 1.0 + 0.1 * np.cos(th), drho=lambda th: -0.1 * np.sin(th), R=4.0, label="egg"
    )


class TestMirrorReduction:
    """On a mirror-symmetric grid Newton runs on the half mesh theta in
    [0, pi/2] and takes the full grid's steps, to rounding."""

    @pytest.fixture
    def meshes(self, monkeypatch):
        """Record the half flag of every mesh a solve builds."""
        halves = []

        class Recording(solver2d._Mesh):
            def __init__(self, domain, Nsigma, Ntheta, half=False):
                halves.append(half)
                super().__init__(domain, Nsigma, Ntheta, half)

        monkeypatch.setattr(solver2d, "_Mesh", Recording)
        return halves

    @pytest.mark.parametrize("p", [1.5, 1.1])
    def test_half_solve_takes_the_full_solves_steps(self, p, monkeypatch, meshes):
        dom = ellipsoid_domain(1.3, 1.0, R=4.0)
        half = solve_2d(dom, p=p, u_R=0.05, shape=(64, 32))
        monkeypatch.setattr(solver2d, "_mirrored", lambda domain, Ntheta: False)
        full = solve_2d(dom, p=p, u_R=0.05, shape=(64, 32))
        assert meshes == [True, True, False, False]
        assert half.converged and full.converged
        assert half.newton_steps == full.newton_steps
        assert np.max(np.abs(half.u - full.u) / full.u) <= 1e-13
        for h, f in zip((*half.coarse, half), (*full.coarse, full)):
            energies = np.array([[a[0], b[0]] for a, b in zip(h.history, f.history, strict=True)])
            assert np.max(np.abs(energies[:, 0] - energies[:, 1]) / energies[:, 1]) <= 1e-14
        flux_h, flux_f = flux_profile(half), flux_profile(full)
        assert np.max(np.abs(flux_h - flux_f)) <= 1e-12 * np.max(np.abs(flux_f))

    @pytest.mark.parametrize("dom", [ellipsoid_domain(1.3, 1.0, R=4.0), sphere_domain(1.0, 4.0)])
    def test_solution_is_mirror_symmetric(self, dom, meshes):
        f = solve_2d(dom, p=1.5, u_R=0.05, shape=(64, 32))
        assert all(meshes)
        assert np.array_equal(f.u, f.u[:, ::-1])
        assert all(np.array_equal(c.u, c.u[:, ::-1]) for c in f.coarse)
        assert f._stiffness.shape == (f.u.size,)

    def test_asymmetric_domain_takes_the_full_grid(self, meshes):
        f = solve_2d(_egg(), p=1.5, u_R=0.05, shape=(64, 32))
        assert f.converged and meshes == [False, False]
        assert np.max(np.abs(f.u - f.u[:, ::-1])) > 1e-2

    def test_odd_grid_takes_the_full_grid(self, meshes):
        f = solve_2d(ellipsoid_domain(1.3, 1.0, R=4.0), p=1.5, u_R=0.05, shape=(24, 17))
        assert f.converged and meshes == [False]


class TestFactorReuse:
    """Newton back-solves each new gradient with the last Cholesky factor and
    factors again only when that chord step would contract less than a
    Newton step; a chord decrement below tol/2 ends the solve."""

    DOMAIN = ellipsoid_domain(1.3, 1.0, R=4.0)
    TOL = 1e-10

    @staticmethod
    def fresh_decrement(f: Field2D) -> float:
        """The relative Newton decrement at f.u from a freshly factored
        Hessian of the full (not mirrored) mesh."""
        mesh = solver2d._Mesh(f.domain, *f.shape)
        u = f.u.ravel()
        ur, ut = mesh.grad(u)
        s = ur * ur + ut * ut + f.eps**2
        coef = mesh.vol * s ** ((f.p - 2.0) / 2.0)
        energy = float(np.sum(coef * s)) / f.p
        grad = mesh.load(coef, ur, ut)[mesh.inner]
        x = solver2d.solve_spd(mesh.hessian_band(coef, ur, ut, s, f.p), grad).x
        return math.sqrt(float(grad @ x) / (2.0 * energy))

    @pytest.mark.parametrize("p", [1.5, 1.1, 1.05])
    def test_the_newton_decrement_is_below_tol(self, p):
        f = solve_2d(self.DOMAIN, p=p, u_R=0.05, shape=(96, 48), tol=self.TOL)
        assert f.converged
        for grid in (*f.coarse, f):
            assert self.fresh_decrement(grid) < self.TOL, grid.shape

    def test_fine_grids_factor_fewer_times_than_they_step(self):
        f = solve_2d(self.DOMAIN, p=1.5, u_R=0.05, shape=(192, 96), tol=self.TOL)
        assert f.converged and f.residual_rel < self.TOL
        for (*shape, steps), (*_, factored) in list(zip(f.newton_steps, f.factorizations))[1:]:
            assert 1 <= factored < steps, shape

    @pytest.mark.parametrize(
        "p, shape, steps",
        [
            (1.5, (96, 48), [[48, 24, 5], [96, 48, 3]]),
            (1.1, (96, 48), [[48, 24, 16], [96, 48, 4]]),
            (1.05, (96, 48), [[48, 24, 15], [96, 48, 7]]),
            (1.5, (192, 96), [[48, 24, 5], [96, 48, 3], [192, 96, 3]]),
        ],
    )
    def test_takes_as_many_steps_as_fresh_factors(self, p, shape, steps):
        # the steps per grid of a solve that factors at every step
        f = solve_2d(self.DOMAIN, p=p, u_R=0.05, shape=shape, tol=self.TOL)
        assert f.newton_steps == steps
        assert [grid[:2] for grid in f.factorizations] == [grid[:2] for grid in steps]


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
                         "hring_sq", "theta_eps", "weights", "area", "willmore", "chi_proxy"):
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


class TestLevelIntegral:
    """A level's integral is one weighted sum; a 2-D level's weights are the
    composite Simpson weights of ``numerics.simpson_weights`` times the area
    element, which reproduce ``scipy.integrate.simpson`` on the uniform theta
    grid, with its end correction for an odd number of intervals."""

    @pytest.fixture(scope="class", params=NTHETA)
    def field(self, request):
        dom = ellipsoid_domain(1.3, 1.0, R=4.0)
        return solve_2d(dom, p=1.5, u_R=0.05, shape=(24, request.param), tol=1e-10)

    def test_matches_scipy_simpson(self, field):
        from scipy.integrate import simpson

        lev = field.level(midband(field, num=3))
        weights = simpson_weights(lev.theta)
        for values in (np.ones_like(lev.r), lev.H**2 * lev.r, (1.0 + np.cos(lev.theta) ** 3) * lev.r):
            for y in (values[1], values):
                got = np.sum(y * weights, axis=-1)
                want = simpson(y, x=lev.theta, axis=-1)
                assert np.shape(got) == np.shape(want)
                assert np.all(np.abs(got - want) <= 1e-15 * np.abs(want))

    @pytest.mark.parametrize("ntheta", NTHETA)
    def test_exact_on_polynomials(self, ntheta):
        """Exact to rounding on cubics in theta at even Ntheta; at odd Ntheta
        the end correction is exact on quadratics."""
        theta = np.linspace(0.0, math.pi, ntheta + 1)
        weights = simpson_weights(theta)
        coeffs = [(1.0, 0.0, 0.0, 0.0), (0.5, -1.0, 2.0, 0.0)]
        if ntheta % 2 == 0:
            coeffs.append((2.0, 0.5, 0.0, -1.0))
        for c in coeffs:
            got = np.sum(sum(ck * theta**k for k, ck in enumerate(c)) * weights)
            want = sum(ck * math.pi ** (k + 1) / (k + 1) for k, ck in enumerate(c))
            assert abs(got - want) <= 8.0 * np.finfo(float).eps * abs(want), c

    def test_batch_equals_single_levels(self, field):
        ts = midband(field, num=3)
        batch = field.level(ts)
        for k, t in enumerate(ts):
            one = field.level(t)
            for name in ("area", "willmore", "chi_proxy"):
                assert getattr(one, name) == getattr(batch, name)[k], name
            assert one.integrate(one.hring_sq) == batch.integrate(batch.hring_sq)[k]


class TestFieldFromRadial:
    def test_nodal_values_are_exact(self):
        pot = radial.solve_wp_eps(geometry.euclidean(3), 1.0, 4.0, 1.5, 1e-3)
        f = field_from_radial(sphere_domain(1.0, 4.0), (32, 16), pot)
        exact = np.array([pot.u(x) for x in f.r.ravel()]).reshape(f.r.shape)
        assert np.max(np.abs(f.u - exact)) < 1e-14

    def test_an_annulus_short_of_the_domain_is_a_value_error(self):
        # pot.u judges the nodal radii: those beyond its R are the program's fault
        pot = radial.solve_wp(geometry.euclidean(3), 1.0, 3.0, 1.5)
        with pytest.raises(ValueError, match=r"^r=\S+ outside \[1\.0, 3\.0\]$") as info:
            field_from_radial(sphere_domain(1.0, 4.0), (16, 16), pot)
        assert not isinstance(info.value, (ConfigError, SolverError))

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
    def test_field_csv(self, ellipsoid_128, tmp_path):
        f = ellipsoid_128
        # the ellipsoid is mirrored about its equator, so u repeats across it
        assert np.array_equal(f.u, f.u[:, ::-1])
        header, rows = f.table()
        path = tmp_path / "field.csv"
        write_csv(path, header, rows)
        assert path.read_bytes() == cell_by_cell(header, rows.tolist())
        lines = path.read_text().splitlines()
        assert lines[0] == "sigma,theta,u"
        assert len(lines) == 1 + f.u.size
        back = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]]).reshape(*f.u.shape, 3)
        assert np.array_equal(back[:, 0, 0], f.sigma) and np.array_equal(back[0, :, 1], f.theta)
        assert np.array_equal(back[..., 2], f.u)  # sigma-major, round-trip exact

    def test_level_csv(self, sphere_field, tmp_path):
        t = float(midband(sphere_field, num=3)[0])
        curve = sphere_field.level(t)
        path = tmp_path / "level.csv"
        write_csv(path, *curve.table())
        lines = path.read_text().splitlines()
        assert lines[0] == "theta,r,grad_w,H,kappa_m,kappa_phi"
        assert len(lines) == 1 + len(curve.theta)
        # a level of a batch needs its index, and then has the single level's table, bit for bit
        batch = sphere_field.level(midband(sphere_field, num=3))
        with pytest.raises(ValueError, match="single level"):
            batch.table()
        with pytest.raises(ValueError, match="single level"):
            curve.table(0)
        for k, t in enumerate(batch.t):
            header, rows = sphere_field.level(float(t)).table()
            assert batch.table(k)[0] == header
            assert np.asarray(batch.table(k)[1]).tobytes() == np.asarray(rows).tobytes()
