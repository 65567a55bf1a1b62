"""Minimal deterministic SVG output: disk-model tessellations and decay curves."""

import math


def _arc_of(w1, w2):
    """(radius, sweep) of the geodesic arc from w1 to w2, or None for a
    diameter segment.  Geodesics are circular arcs orthogonal to the unit
    circle."""
    det = w1[0] * w2[1] - w1[1] * w2[0]
    if abs(det) < 1e-9:
        return None
    # center c solves 2 w.c = |w|^2 + 1 for both endpoints
    b1 = (w1[0] ** 2 + w1[1] ** 2 + 1.0) / 2.0
    b2 = (w2[0] ** 2 + w2[1] ** 2 + 1.0) / 2.0
    cx = (b1 * w2[1] - b2 * w1[1]) / det
    cy = (w1[0] * b2 - w2[0] * b1) / det
    r = math.sqrt(max(cx * cx + cy * cy - 1.0, 1e-300))
    sweep = 1 if ((w1[0] - cx) * (w2[1] - cy) - (w1[1] - cy) * (w2[0] - cx)) > 0 else 0
    return r, sweep


def tessellation_svg(tess, size=800):
    """Render the tessellation in the Poincare disk; returns SVG text."""
    half = size / 2.0
    scale = 0.98 * half

    def to_px(w):
        return (half + scale * w[0], half - scale * w[1])

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
        f'<circle cx="{half}" cy="{half}" r="{scale}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for t in tess.tiles:
        dv = [(d.x, d.y) for d in t.disk_vertices()]
        x0, y0 = to_px(dv[0])
        path = [f"M {x0:.6f} {y0:.6f}"]
        order = (0, 1, 2, 0)
        for a, b in zip(order, order[1:]):
            x, y = to_px(dv[b])
            arc = _arc_of(dv[a], dv[b])
            if arc is None:
                path.append(f"L {x:.6f} {y:.6f}")
            else:
                r, sweep = arc
                # the pixel y-flip reverses orientation
                path.append(f"A {r * scale:.6f} {r * scale:.6f} 0 0 {1 - sweep} {x:.6f} {y:.6f}")
        fill = "#9ecae1" if t.g.det_sign > 0 else "#deebf7"
        lines.append(
            f'<path d="{" ".join(path)} Z" fill="{fill}" stroke="#333333" stroke-width="0.4"/>'
        )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def decay_svg(qs, us, eps_hat, ci95_low, width=640, height=440):
    """U(q) at the fitted points and the fitted line: slope -eps_hat
    through the points' mean, where the least-squares line passes."""
    pad = 60.0
    if not qs:
        return '<svg xmlns="http://www.w3.org/2000/svg" width="10" height="10"/>'
    qmin, qmax = min(qs), max(qs)
    umin, umax = min(us), max(us)
    if umax == umin:
        umax = umin + 1.0
    qspan = max(qmax - qmin, 1)

    def px(q, u):
        x = pad + (q - qmin) / qspan * (width - 2 * pad)
        y = height - pad - (u - umin) / (umax - umin) * (height - 2 * pad)
        return x, y

    pts = " ".join(f"{px(q, u)[0]:.2f},{px(q, u)[1]:.2f}" for q, u in zip(qs, us))
    qbar = sum(qs) / len(qs)
    ubar = sum(us) / len(us)
    x0, y0 = px(qmin, ubar - eps_hat * (qmin - qbar))
    x1, y1 = px(qmax, ubar - eps_hat * (qmax - qbar))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" stroke="black"/>',
        f'<text x="{width/2:.0f}" y="{height-20}" text-anchor="middle" font-size="14">q</text>',
        f'<text x="18" y="{height/2:.0f}" font-size="14" transform="rotate(-90 18 {height/2:.0f})" '
        f'text-anchor="middle">U(q)</text>',
        f'<line x1="{x0:.2f}" y1="{y0:.2f}" x2="{x1:.2f}" y2="{y1:.2f}" '
        f'stroke="#d62728" stroke-dasharray="6 3"/>',
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
    ]
    for q, u in zip(qs, us):
        x, y = px(q, u)
        lines.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" fill="#1f77b4"/>')
    lines.append(
        f'<text x="{pad+8}" y="{pad+4}" font-size="13">eps_hat = {eps_hat:.5g} '
        f"(95% lower bound {ci95_low:.5g})</text>"
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
