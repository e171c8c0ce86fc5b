"""Independent numpy checks of every benchmark operation.

Nothing here imports smoothgd.  The smoothing operator is rebuilt from its
documented definition: on a ring of n >= 3 points A(sigma) has 1 + 2 sigma
on the diagonal and -sigma on the two cyclic neighbours; n = 2 uses the
single-coupling form [[1 + sigma, -sigma], [-sigma, 1 + sigma]].  Each check
returns None when the output is right and a one-line reason otherwise.
"""

import json
import math

import numpy as np

FIELD_RTOL = 1e-8        # field vs |T x0| away from the dip
DIP_FLOOR = 1e-6         # cells with |T x0| below this * s_max * r are the dip
ARGMIN_FINE_STEPS = 5    # argmin must sit this close to a dip angle
EIG_TOL = 1e-9           # eigenvalue agreement, scaled by 1 + ||B||_F
REPLAY_RTOL = 1e-8       # descent final points vs a replay
FFT_RTOL = 1e-10         # wide runs vs an FFT replay
RATE_SIGMA_BOUND = 1.0   # sup of sigma(k) for ConstantSigma(1) and RatioSigma
RATE_ITER_SLACK = 1      # stop step may differ by one where ||g|| ~ eps


def smoothing_matrix(n, sigma):
    if n == 2:
        return np.array([[1.0 + sigma, -sigma], [-sigma, 1.0 + sigma]])
    a = (1.0 + 2.0 * sigma) * np.eye(n)
    idx = np.arange(n)
    a[idx, (idx + 1) % n] -= sigma
    a[idx, (idx - 1) % n] -= sigma
    return a


def ring_spectrum(n, sigma):
    """Eigenvalues of A(sigma) in FFT mode order (n >= 3)."""
    return 1.0 + sigma * (2.0 - 2.0 * np.cos(2.0 * np.pi * np.arange(n) / n))


def step_matrix(b, sigma, eta):
    """I - eta A(sigma)^-1 B: one smoothed step on f = x^T B x / 2."""
    n = b.shape[0]
    return np.eye(n) - eta * np.linalg.solve(smoothing_matrix(n, sigma), b)


def ratio_sigma(k):
    return (k + 2.0) / (k + 3.0)


def plateau_sigma(k, k0):
    kk = min(k, k0)
    return (kk + 2.0) / (kk + 3.0)


# -- field_sweep ------------------------------------------------------------

def step_map(b, sigmas, eta):
    """T = M_{K-1} ... M_0 for the given per-step sigmas."""
    t = np.eye(b.shape[0])
    for sigma in sigmas:
        t = step_matrix(b, sigma, eta) @ t
    return t


def _angle_gap_deg(a, b):
    """Distance between two angles modulo 180 degrees (antipodal dips)."""
    return abs((a - b + 90.0) % 180.0 - 90.0)


def read_field_csv(path):
    """(r, theta_deg, x0 (m, 2), distance) from a sweep CSV.

    Every row must end in the max_iters status: the field_sweep workload
    keeps the CLI's termination defaults, under which no cell stops early.
    """
    with open(path) as fh:
        text = fh.read()
    header = "r,theta_deg,x0_0,x0_1,final_distance,status\n"
    at = text.find(header)
    if at < 0 or any(not ln.startswith("# ")
                     for ln in text[:at].splitlines()):
        raise ValueError("missing or unexpected CSV header")
    body = text[at + len(header):]
    rows = body.count("\n")
    if body.count(",max_iters\n") != rows:
        raise ValueError("a cell ended with a status other than max_iters")
    numbers = np.fromstring(
        body.replace(",max_iters\n", " ").replace(",", " "), sep=" ")
    if numbers.size != 5 * rows:
        raise ValueError("CSV row without 6 fields")
    numbers = numbers.reshape(rows, 5)
    return numbers[:, 0], numbers[:, 1], numbers[:, 2:4], numbers[:, 4]


def check_field(b, sigmas, eta, fine_cells, fine_step_deg, csv_path,
                summary_path):
    """Fine CSV and summary of one two-scale sweep against |T x0|."""
    try:
        r, theta, x0, dist = read_field_csv(csv_path)
        with open(summary_path) as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        return f"unreadable output: {exc}"
    return check_field_values(b, sigmas, eta, fine_cells, fine_step_deg,
                              r, theta, x0, dist, summary)


def check_field_values(b, sigmas, eta, fine_cells, fine_step_deg,
                       r, theta, x0, dist, summary):
    if len(r) != fine_cells:
        return f"fine grid has {len(r)} cells, expected {fine_cells}"
    rad = np.radians(theta)
    start = np.column_stack([r * np.cos(rad), r * np.sin(rad)])
    if np.max(np.abs(start - x0)) > 1e-12:
        return "x0 columns do not match r, theta"
    t = step_map(b, sigmas, eta)
    _, svals, vt = np.linalg.svd(t)
    expected = np.linalg.norm(start @ t.T, axis=1)
    away = expected >= DIP_FLOOR * svals[0] * r
    if not np.any(away):
        return "no cell lies away from the dip"
    rel = np.abs(dist[away] - expected[away]) / expected[away]
    if rel.max() > FIELD_RTOL:
        i = int(np.argmax(rel))
        return f"field differs from |T x0| by {rel[i]:.2e} relative"
    dip = math.degrees(math.atan2(vt[1, 1], vt[1, 0]))
    k = int(np.argmin(dist))
    gap = _angle_gap_deg(summary["argmin_theta_deg"], dip)
    if gap > ARGMIN_FINE_STEPS * fine_step_deg:
        return (f"argmin {summary['argmin_theta_deg']:.7f} deg is "
                f"{gap:.2e} deg from the dip at {dip:.7f} (mod 180)")
    if (summary["min_distance"] != dist[k]
            or summary["argmin_theta_deg"] != theta[k]
            or summary["argmin_r"] != r[k]
            or summary["max_distance"] != dist.max()
            or summary["failed_cells"] != 0):
        return "summary does not match the fine field"
    return None


# -- saddle_analysis ----------------------------------------------------------

def reference_eigenvalues(b, sigma):
    """Eigenvalues of A(sigma)^-1 B, descending, via a Cholesky similarity."""
    low = np.linalg.cholesky(smoothing_matrix(b.shape[0], sigma))
    inv_low = np.linalg.inv(low)
    sym = inv_low @ b @ inv_low.T
    return np.sort(np.linalg.eigvalsh(0.5 * (sym + sym.T)))[::-1]


def check_report(report, b, sigmas, canonical, w_space):
    """An ``analyze`` report against dense eigenvalues and known subspaces.

    ``w_space`` is None when the attraction subspace is not known in
    advance, else rows spanning the subspace it must equal.
    """
    n = b.shape[0]
    if report.get("n") != n or report.get("degenerate") is not False:
        return "report n or degenerate flag is wrong"
    entries = report.get("per_sigma", [])
    if [e["sigma"] for e in entries] != list(sigmas):
        return "report sigma list differs from the request"
    tol = EIG_TOL * (1.0 + np.linalg.norm(b))
    for entry in entries:
        got = np.array(entry["eigenvalues"], dtype=float)
        ref = reference_eigenvalues(b, entry["sigma"])
        if got.shape != ref.shape:
            return f"sigma {entry['sigma']}: {len(got)} eigenvalues for n={n}"
        err = float(np.max(np.abs(got - ref)))
        if err > tol:
            return f"sigma {entry['sigma']}: eigenvalue error {err:.2e}"
        if canonical and entry["labels"] is None:
            return f"sigma {entry['sigma']}: unlabelled canonical structure"
    if canonical:
        if report.get("dim_W") != (n - 1) // 2:
            return f"dim_W {report.get('dim_W')} != {(n - 1) // 2}"
        if report.get("sigma_independent") is not True:
            return "canonical attraction subspace reported sigma-dependent"
    if w_space is not None:
        rows = np.array(report.get("w_basis") or np.empty((0, n)), dtype=float)
        if rows.shape[0] != w_space.shape[0]:
            return f"dim_W {rows.shape[0]} != {w_space.shape[0]}"
        if rows.shape[0]:
            outside = rows - (rows @ w_space.T) @ w_space
            if np.max(np.abs(outside)) > 1e-8:
                return "w_basis leaves the expected subspace"
    return None


def eigen_residual(b, sigma, pairs):
    """max ||A^-1 B v - lambda v|| over returned eigenpairs."""
    a = smoothing_matrix(b.shape[0], sigma)
    vecs = np.column_stack([p.vector for p in pairs])
    vals = np.array([p.value for p in pairs])
    return float(np.max(np.linalg.norm(
        np.linalg.solve(a, b @ vecs) - vecs * vals, axis=0)))


# -- descent ----------------------------------------------------------------

def plateau_replay(b, x0, k0, eta, steps):
    """Iterates x_{steps-1} and x_steps of the plateau schedule on B.

    Steps are applied one at a time: a matrix power would mix the rounding
    of the growing escape mode into the contracting ones.
    """
    x_prev = x = np.asarray(x0, dtype=float)
    frozen = step_matrix(b, plateau_sigma(k0, k0), eta)
    for k in range(steps):
        m = step_matrix(b, plateau_sigma(k, k0), eta) if k < k0 else frozen
        x_prev, x = x, m @ x
    return x_prev, x


def check_escape(b, x0, k0, eta, radius, result):
    if result.status.value != "escaped":
        return f"generic start ended {result.status.value}, not escaped"
    prev, x = plateau_replay(b, x0, k0, eta, result.iterations_used)
    err = np.linalg.norm(result.final_point - x)
    if err > REPLAY_RTOL * np.linalg.norm(x):
        return f"final point differs from the replay by {err:.2e}"
    if not (np.linalg.norm(x) > radius
            and np.linalg.norm(prev) <= radius * (1 + 1e-9)):
        return f"run stopped at the wrong step ({result.iterations_used})"
    return None


def check_attraction(b, x0, k0, eta, eps, result):
    """Attraction runs: status, distance, and the replay inside the span.

    Round-off feeds the escape mode, which grows over the ~500 steps, so
    only the component in the attraction span (odd under the reflection
    i -> n-2-i, zero last entry) is compared with the replay.  The same
    growth can delay the stop by a few steps, so the stop is checked
    against the run's own final gradient, not against the replay's step.
    """
    if result.status.value != "reached_stationary":
        return (f"attraction-subspace start ended "
                f"{result.status.value}, not reached_stationary")
    if np.linalg.norm(result.final_point) > 1e-6:
        return "attraction run stopped farther than 1e-6 from the saddle"
    _, x = plateau_replay(b, x0, k0, eta, result.iterations_used)
    err = np.linalg.norm(_odd_part(result.final_point - x))
    if err > REPLAY_RTOL * np.linalg.norm(x) + 1e-15:
        return f"final point differs from the replay by {err:.2e}"
    gnorm = np.linalg.norm(b @ result.final_point)
    if not (result.final_grad_norm <= eps
            and abs(result.final_grad_norm - gnorm) <= 1e-9 * gnorm
            and np.linalg.norm(b @ _odd_part(x)) <= 1.05 * eps):
        return f"run stopped at the wrong step ({result.iterations_used})"
    return None


def _odd_part(v):
    """Projection onto vectors with v[n-2-i] = -v[i] and v[n-1] = 0."""
    head = v[:-1]
    return np.r_[0.5 * (head - head[::-1]), 0.0]


def rate_replay(m, seed, trials, eps, ratio):
    """(bound, iterations) of each rate_check trial, recomputed from scratch.

    Rebuilds what ``experiments.rate_check`` documents: L is the largest
    eigenvalue of the positive definite M, trial starts are a random
    direction times a uniform radius drawn from ``default_rng(seed)``, the
    step is 1 / L, and the bound is (f0 - 0) L / (gain eps^2) with
    gain = (1 + 8C) / (2 (1 + 4C)^2) for the schedule bound C = 1 (both
    ConstantSigma(1) and RatioSigma).  Each trial is replayed with dense
    solves until ||M x|| <= eps or the bound's budget runs out.
    """
    n = m.shape[0]
    lipschitz = float(np.linalg.eigvalsh(m).max())
    eta = 1.0 / lipschitz
    gain = (1.0 + 8.0 * RATE_SIGMA_BOUND) / (
        2.0 * (1.0 + 4.0 * RATE_SIGMA_BOUND) ** 2)
    rng = np.random.default_rng(seed)
    constant = step_matrix(m, 1.0, eta)
    out = []
    for _ in range(trials):
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        x = direction * rng.uniform(0.0, 1.0)
        bound = 0.5 * float(x @ m @ x) * lipschitz / (gain * eps * eps)
        budget = math.ceil(bound) + 1
        k = 0
        while np.linalg.norm(m @ x) > eps and k < budget:
            step = step_matrix(m, ratio_sigma(k), eta) if ratio else constant
            x = step @ x
            k += 1
        out.append((bound, k))
    return out


def check_rate(reports, m, seed, trials, eps, ratio):
    """rate_check reports against an independent replay of every trial."""
    if len(reports) != trials:
        return f"{len(reports)} trial reports for {trials} trials"
    for rep, (bound, iters) in zip(reports, rate_replay(m, seed, trials,
                                                        eps, ratio)):
        if abs(rep.bound - bound) > 1e-9 * bound:
            return f"bound {rep.bound:.9g} differs from {bound:.9g}"
        if abs(rep.empirical_iters - iters) > RATE_ITER_SLACK:
            return (f"{rep.empirical_iters} iterations reported, "
                    f"{iters} replayed")
        if rep.violated or iters > bound:
            return (f"trial violated its bound: {rep.empirical_iters} "
                    f"iterations vs {bound:.3g}")
    return None


def fft_replay(d, x0, sigmas, eta):
    """Smoothed descent on f = sum(d x^2) / 2 via per-mode division."""
    x = np.asarray(x0, dtype=float).copy()
    n = len(x)
    for sigma in sigmas:
        g = d * x
        x = x - eta * np.fft.ifft(np.fft.fft(g) / ring_spectrum(n, sigma)).real
    return x


def check_wide(d, x0, sigmas, eta, result):
    if result.status.value != "max_iters":
        return f"fixed-budget run ended {result.status.value}"
    if result.iterations_used != len(sigmas):
        return f"{result.iterations_used} steps for a {len(sigmas)} budget"
    ref = fft_replay(d, x0, sigmas, eta)
    err = np.linalg.norm(result.final_point - ref) / np.linalg.norm(ref)
    if err > FFT_RTOL:
        return f"final point differs from the FFT replay by {err:.2e}"
    return None
