"""Self-contained HTML dashboard for one telemetry document, and its
plain-text summary (both printed / written by ``repro report``).

Renders the telemetry view of a run record into a single HTML file with
no external assets: stat tiles, SLO status, the alert log, the chaos
detection timeline, a two-level critical-path icicle with its top-N
table, and per-component sparkline small-multiples of the windowed
series.  Everything is computed from the document — no wall clock, no
randomness — so the same document always renders byte-identical HTML.

Charts follow the repository's data-viz conventions: categorical colors
are assigned in fixed slot order (never cycled past the validated
palette — overflow folds into "other"), status colors are reserved and
always paired with an icon + label, values/labels wear text tokens
rather than series colors, one axis per chart, 2px line marks, and a
table fallback under every chart.  Light and dark palettes are both
shipped via CSS custom properties and ``prefers-color-scheme``.
"""

from __future__ import annotations

import html
import json
from typing import Dict, List, Optional, Sequence, Tuple

# Categorical slots (validated order; light, dark). Slots 4+ appear only
# in adjacent contexts (icicle segments), which the 8-slot order passes.
_SERIES = [
    ("#2a78d6", "#3987e5"),
    ("#eb6834", "#d95926"),
    ("#1baf7a", "#199e70"),
    ("#eda100", "#c98500"),
    ("#e87ba4", "#d55181"),
    ("#008300", "#008300"),
    ("#4a3aa7", "#9085e9"),
    ("#e34948", "#e66767"),
]

#: Status palette (fixed, never themed) with icon + label pairing.
_STATUS = {
    "ok": ("var(--status-good)", "✓", "ok"),
    "recovered": ("var(--status-warning)", "▲", "recovered"),
    "firing": ("var(--status-critical)", "✕", "firing"),
}

_SPARK_W, _SPARK_H = 260, 64
_PAD = 6
_MAX_SERIES_PER_COMPONENT = 8


def _esc(text: object) -> str:
    return html.escape(str(text), quote=True)


def _fmt(v: Optional[float], digits: int = 4) -> str:
    if v is None:
        return "—"
    if v == int(v) and abs(v) < 1e15:
        return f"{int(v):,}"
    return f"{v:,.{digits}f}"


def _css() -> str:
    light = """
      color-scheme: light;
      --page: #f9f9f7; --surface-1: #fcfcfb;
      --text-primary: #0b0b0b; --text-secondary: #52514e;
      --text-muted: #898781;
      --gridline: #e1e0d9; --baseline: #c3c2b7;
      --border: rgba(11,11,11,0.10);
      --series-1: #2a78d6; --series-2: #eb6834; --series-3: #1baf7a;
      --series-4: #eda100; --series-5: #e87ba4; --series-6: #008300;
      --series-7: #4a3aa7; --series-8: #e34948;
    """
    dark = """
      color-scheme: dark;
      --page: #0d0d0d; --surface-1: #1a1a19;
      --text-primary: #ffffff; --text-secondary: #c3c2b7;
      --text-muted: #898781;
      --gridline: #2c2c2a; --baseline: #383835;
      --border: rgba(255,255,255,0.10);
      --series-1: #3987e5; --series-2: #d95926; --series-3: #199e70;
      --series-4: #c98500; --series-5: #d55181; --series-6: #008300;
      --series-7: #9085e9; --series-8: #e66767;
    """
    return f"""
    :root {{ {light}
      --status-good: #0ca30c; --status-warning: #fab219;
      --status-serious: #ec835a; --status-critical: #d03b3b;
    }}
    @media (prefers-color-scheme: dark) {{
      :root:where(:not([data-theme="light"])) {{ {dark} }}
    }}
    :root[data-theme="dark"] {{ {dark} }}
    * {{ box-sizing: border-box; }}
    body {{
      margin: 0; padding: 24px; background: var(--page);
      color: var(--text-primary);
      font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
    }}
    h1 {{ font-size: 20px; margin: 0 0 4px; }}
    h2 {{ font-size: 15px; margin: 28px 0 10px; }}
    h3 {{ font-size: 13px; margin: 18px 0 8px;
         color: var(--text-secondary); }}
    .meta {{ color: var(--text-secondary); margin-bottom: 18px; }}
    .tiles {{ display: flex; flex-wrap: wrap; gap: 12px; }}
    .tile {{
      background: var(--surface-1); border: 1px solid var(--border);
      border-radius: 8px; padding: 12px 16px; min-width: 130px;
    }}
    .tile .v {{ font-size: 22px; }}
    .tile .k {{ color: var(--text-secondary); font-size: 12px; }}
    table {{
      border-collapse: collapse; background: var(--surface-1);
      border: 1px solid var(--border); border-radius: 8px; width: 100%;
    }}
    th, td {{
      text-align: left; padding: 6px 12px;
      border-bottom: 1px solid var(--gridline); font-size: 13px;
    }}
    th {{ color: var(--text-secondary); font-weight: 600; }}
    tr:last-child td {{ border-bottom: none; }}
    td.num, th.num {{
      text-align: right; font-variant-numeric: tabular-nums;
    }}
    .status {{ white-space: nowrap; }}
    .status .icon {{ font-weight: 700; }}
    .bar {{
      display: inline-block; height: 10px; border-radius: 2px;
      background: var(--series-1); vertical-align: baseline;
    }}
    .icicle {{ display: flex; gap: 2px; margin-bottom: 2px; }}
    .icicle .seg {{
      height: 26px; border-radius: 3px; overflow: hidden;
      color: #fff; font-size: 11px; line-height: 26px;
      padding: 0 4px; white-space: nowrap; min-width: 2px;
    }}
    .icicle .seg.dim {{ opacity: 0.72; }}
    .cards {{
      display: grid; gap: 12px;
      grid-template-columns: repeat(auto-fill, minmax(280px, 1fr));
    }}
    .card {{
      background: var(--surface-1); border: 1px solid var(--border);
      border-radius: 8px; padding: 10px 12px; position: relative;
    }}
    .card .name {{
      font-size: 12px; color: var(--text-secondary);
      overflow-wrap: anywhere;
    }}
    .card .last {{
      font-size: 15px; font-variant-numeric: tabular-nums;
    }}
    .card svg {{ display: block; }}
    .axis {{ color: var(--text-muted); font-size: 10px;
            display: flex; justify-content: space-between; }}
    details {{ margin-top: 6px; }}
    summary {{ color: var(--text-muted); font-size: 11px;
              cursor: pointer; }}
    details table {{ margin-top: 4px; }}
    .tooltip {{
      position: absolute; pointer-events: none; display: none;
      background: var(--surface-1); border: 1px solid var(--border);
      border-radius: 4px; padding: 2px 6px; font-size: 11px;
      font-variant-numeric: tabular-nums; white-space: nowrap; z-index: 2;
    }}
    .note {{ color: var(--text-muted); font-size: 12px; margin: 6px 0; }}
    """


_JS = """
document.querySelectorAll('svg.spark').forEach(function (svg) {
  var pts = JSON.parse(svg.dataset.points || '[]');
  if (!pts.length) return;
  var card = svg.closest('.card');
  var tip = card.querySelector('.tooltip');
  var dot = svg.querySelector('.hover-dot');
  svg.addEventListener('mousemove', function (ev) {
    var rect = svg.getBoundingClientRect();
    var x = (ev.clientX - rect.left) * (svg.viewBox.baseVal.width / rect.width);
    var best = pts[0];
    for (var i = 1; i < pts.length; i++) {
      if (Math.abs(pts[i][0] - x) < Math.abs(best[0] - x)) best = pts[i];
    }
    dot.setAttribute('cx', best[0]);
    dot.setAttribute('cy', best[1]);
    dot.style.display = 'block';
    tip.textContent = 't=' + best[2] + 's  ' + best[3];
    tip.style.display = 'block';
    tip.style.left = Math.min(ev.clientX - rect.left + 12,
                              rect.width - 80) + 'px';
    tip.style.top = (svg.offsetTop - 4) + 'px';
  });
  svg.addEventListener('mouseleave', function () {
    dot.style.display = 'none';
    tip.style.display = 'none';
  });
});
"""


def _status_cell(state: str) -> str:
    color, icon, label = _STATUS.get(
        state, ("var(--text-muted)", "·", state))
    return (f'<span class="status"><span class="icon" '
            f'style="color:{color}">{icon}</span> {_esc(label)}</span>')


def _tiles(doc: Dict[str, object]) -> str:
    telemetry = doc.get("telemetry", {})
    slos = telemetry.get("slos", [])
    alerts = telemetry.get("alerts", [])
    firing = sum(1 for s in slos if s.get("state") == "firing")
    tiles = [
        ("sim time", f"{_fmt(doc.get('sim_time_s'), 2)} s"),
        ("ticks sampled", _fmt(telemetry.get("ticks"))),
        ("series", _fmt(len(telemetry.get("series", {})))),
        ("alerts fired", _fmt(len(alerts))),
        ("SLOs firing", _fmt(firing)),
    ]
    cells = "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>'
        for k, v in tiles
    )
    return f'<div class="tiles">{cells}</div>'


def _slo_table(slos: Sequence[Dict[str, object]]) -> str:
    if not slos:
        return '<p class="note">no SLOs evaluated</p>'
    rows = []
    for s in slos:
        rows.append(
            "<tr>"
            f"<td>{_esc(s.get('name'))}</td>"
            f"<td>{_status_cell(str(s.get('state')))}</td>"
            f"<td>{_esc(s.get('objective_label'))}</td>"
            f"<td class='num'>{_fmt(s.get('bad_events'))} / "
            f"{_fmt(s.get('total_events'))}</td>"
            f"<td class='num'>{_fmt(s.get('burn_long'), 2)}</td>"
            f"<td class='num'>{_fmt(s.get('max_burn_long'), 2)}</td>"
            f"<td class='num'>{_fmt(s.get('alerts'))}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>SLO</th><th>state</th><th>objective</th>"
        "<th class='num'>bad / total</th><th class='num'>burn (long)</th>"
        "<th class='num'>max burn</th><th class='num'>alerts</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _alert_table(alerts: Sequence[Dict[str, object]]) -> str:
    if not alerts:
        return '<p class="note">no alerts fired</p>'
    rows = []
    for a in alerts:
        fired = a.get("fired_at_s")
        resolved = a.get("resolved_at_s")
        dur = (resolved - fired
               if isinstance(resolved, (int, float))
               and isinstance(fired, (int, float)) else None)
        rows.append(
            "<tr>"
            f"<td>{_esc(a.get('slo'))}</td>"
            f"<td class='num'>{_fmt(fired)}</td>"
            f"<td class='num'>{_fmt(resolved)}</td>"
            f"<td class='num'>{_fmt(dur)}</td>"
            f"<td class='num'>{_fmt(a.get('burn_short'), 1)}</td>"
            f"<td class='num'>{_fmt(a.get('burn_long'), 1)}</td>"
            "</tr>"
        )
    return (
        "<table><thead><tr><th>SLO</th><th class='num'>fired (sim-s)</th>"
        "<th class='num'>resolved</th><th class='num'>duration</th>"
        "<th class='num'>burn short</th><th class='num'>burn long</th>"
        f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
    )


def _chaos_section(chaos: Dict[str, object]) -> str:
    out = []
    fired = chaos.get("fired", [])
    detection = chaos.get("detection", [])
    if fired:
        rows = []
        by_key = {(d.get("kind"), d.get("injected_at_s")): d
                  for d in detection}
        for f in fired:
            d = by_key.get((f.get("kind"), f.get("sim_time_s")), {})
            rows.append(
                "<tr>"
                f"<td>{_esc(f.get('kind'))}</td>"
                f"<td>{_esc(f.get('target'))}</td>"
                f"<td class='num'>{_fmt(f.get('sim_time_s'))}</td>"
                f"<td class='num'>{_fmt(d.get('detected_at_s'))}</td>"
                f"<td>{_esc(d.get('slo') or '—')}</td>"
                f"<td class='num'>{_fmt(d.get('detection_delay_s'))}</td>"
                f"<td class='num'>{_fmt(d.get('recovered_at_s'))}</td>"
                "</tr>"
            )
        out.append(
            "<table><thead><tr><th>fault</th><th>target</th>"
            "<th class='num'>injected (sim-s)</th>"
            "<th class='num'>detected</th><th>by SLO</th>"
            "<th class='num'>delay</th><th class='num'>recovered</th>"
            f"</tr></thead><tbody>{''.join(rows)}</tbody></table>"
        )
    else:
        out.append('<p class="note">no faults fired</p>')
    return "".join(out)


def _critical_section(cp: Dict[str, object]) -> str:
    table = cp.get("table", [])
    flame = cp.get("flame", {})
    sim = cp.get("sim_time_s") or 0.0
    out = [
        f'<p class="note">table accounts for '
        f'{_fmt(cp.get("covered_pct"), 2)}% of '
        f'{_fmt(sim, 2)} sim-s</p>'
    ]
    children = flame.get("children", [])
    if children and sim > 0:
        shown = children[:len(_SERIES)]
        folded = children[len(_SERIES):]
        top, bottom = [], []
        for idx, group in enumerate(shown):
            pct = 100.0 * group.get("value", 0.0) / sim
            color = f"var(--series-{idx + 1})"
            label = (f"{_esc(group.get('name'))} {pct:.1f}%"
                     if pct >= 6.0 else "")
            title = (f"{_esc(group.get('name'))}: "
                     f"{_fmt(group.get('value'))} s ({pct:.1f}%)")
            top.append(
                f'<div class="seg" title="{title}" '
                f'style="width:{max(pct, 0.15):.3f}%;'
                f'background:{color}">{label}</div>'
            )
            for j, op in enumerate(group.get("children", [])):
                op_pct = 100.0 * op.get("value", 0.0) / sim
                op_title = (f"{_esc(group.get('name'))} › "
                            f"{_esc(op.get('name'))}: "
                            f"{_fmt(op.get('value'))} s ({op_pct:.1f}%)")
                dim = " dim" if j % 2 else ""
                bottom.append(
                    f'<div class="seg{dim}" title="{op_title}" '
                    f'style="width:{max(op_pct, 0.15):.3f}%;'
                    f'background:{color}">'
                    f'{_esc(op.get("name")) if op_pct >= 8.0 else ""}'
                    "</div>"
                )
        if folded:
            fold_pct = 100.0 * sum(
                g.get("value", 0.0) for g in folded) / sim
            top.append(
                f'<div class="seg" title="other ({len(folded)} groups)" '
                f'style="width:{max(fold_pct, 0.15):.3f}%;'
                f'background:var(--baseline)"></div>'
            )
        out.append(f'<div class="icicle">{"".join(top)}</div>')
        out.append(f'<div class="icicle">{"".join(bottom)}</div>')
    if table:
        max_pct = max((r.get("pct", 0.0) for r in table), default=0.0)
        rows = []
        for r in table:
            pct = r.get("pct", 0.0)
            width = 120.0 * pct / max_pct if max_pct > 0 else 0.0
            rows.append(
                "<tr>"
                f"<td>{_esc(r.get('label'))}</td>"
                f"<td class='num'>{_fmt(r.get('seconds'))}</td>"
                f"<td class='num'>{pct:.2f}%</td>"
                f"<td><span class='bar' style='width:{width:.1f}px'>"
                "</span></td>"
                "</tr>"
            )
        out.append(
            "<table><thead><tr><th>stage : operator</th>"
            "<th class='num'>sim-s</th><th class='num'>share</th>"
            f"<th></th></tr></thead><tbody>{''.join(rows)}</tbody></table>"
        )
    return "".join(out)


def _sparkline(name: str, series: Dict[str, object],
               window_s: float) -> str:
    points: List[Tuple[float, float]] = [
        (float(w), float(v)) for w, v in series.get("points", [])
    ]
    if not points:
        return ""
    w_lo = points[0][0]
    w_hi = points[-1][0]
    v_lo = min(v for _, v in points)
    v_hi = max(v for _, v in points)
    x_span = max(w_hi - w_lo, 1e-12)
    y_span = max(v_hi - v_lo, 1e-12)
    plot_w = _SPARK_W - 2 * _PAD
    plot_h = _SPARK_H - 2 * _PAD

    def xy(wi: float, v: float) -> Tuple[float, float]:
        x = _PAD + plot_w * (wi - w_lo) / x_span
        y = _PAD + plot_h * (1.0 - (v - v_lo) / y_span)
        return round(x, 2), round(y, 2)

    coords = [xy(wi, v) for wi, v in points]
    path = " ".join(
        f"{'M' if i == 0 else 'L'}{x},{y}"
        for i, (x, y) in enumerate(coords)
    )
    hover = [
        [x, y, round(wi * window_s, 3), round(v, 6)]
        for (x, y), (wi, v) in zip(coords, points)
    ]
    data = _esc(json.dumps(hover, separators=(",", ":")))
    last = points[-1][1]
    table_rows = "".join(
        f"<tr><td class='num'>{_fmt(wi * window_s, 1)}</td>"
        f"<td class='num'>{_fmt(v, 6)}</td></tr>"
        for wi, v in points
    )
    return f"""
    <div class="card">
      <div class="name">{_esc(name)}</div>
      <div class="last">{_fmt(last, 6)}</div>
      <svg class="spark" viewBox="0 0 {_SPARK_W} {_SPARK_H}"
           width="100%" height="{_SPARK_H}" data-points="{data}"
           role="img" aria-label="{_esc(name)} over sim time">
        <line x1="{_PAD}" y1="{_SPARK_H - _PAD}"
              x2="{_SPARK_W - _PAD}" y2="{_SPARK_H - _PAD}"
              stroke="var(--baseline)" stroke-width="1"/>
        <path d="{path}" fill="none" stroke="var(--series-1)"
              stroke-width="2" stroke-linejoin="round"/>
        <circle class="hover-dot" r="3" fill="var(--series-1)"
                style="display:none"/>
      </svg>
      <div class="axis">
        <span>{_fmt(w_lo * window_s, 1)} s</span>
        <span>{_fmt(w_hi * window_s, 1)} s</span>
      </div>
      <div class="tooltip"></div>
      <details><summary>data table</summary>
        <table><thead><tr><th class='num'>sim-s</th>
        <th class='num'>value</th></tr></thead>
        <tbody>{table_rows}</tbody></table>
      </details>
    </div>"""


def _series_section(telemetry: Dict[str, object]) -> str:
    series: Dict[str, Dict[str, object]] = telemetry.get("series", {})
    window_s = float(telemetry.get("window_s", 1.0))
    by_component: Dict[str, List[str]] = {}
    for name in sorted(series):
        by_component.setdefault(
            str(series[name].get("component", "other")), []).append(name)
    out = []
    for component in sorted(by_component):
        names = by_component[component]
        shown = names[:_MAX_SERIES_PER_COMPONENT]
        out.append(f"<h3>{_esc(component)}</h3>")
        cards = "".join(
            _sparkline(n, series[n], window_s) for n in shown)
        out.append(f'<div class="cards">{cards}</div>')
        if len(names) > len(shown):
            out.append(
                f'<p class="note">{len(names) - len(shown)} more '
                f"{_esc(component)} series in the JSON document</p>")
    return "".join(out)


def render_dashboard(doc: Dict[str, object]) -> str:
    """Render one telemetry document as a self-contained HTML page."""
    meta = doc.get("meta", {})
    telemetry = doc.get("telemetry", {})
    title = str(meta.get("algorithm", "run"))
    meta_bits = " · ".join(
        f"{_esc(k)}={_esc(v)}" for k, v in sorted(meta.items())
    )
    sections = [
        f"<h1>PSGraph telemetry — {_esc(title)}</h1>",
        f'<div class="meta">{meta_bits}</div>',
        _tiles(doc),
        "<h2>SLO status</h2>",
        _slo_table(telemetry.get("slos", [])),
        "<h2>Alerts</h2>",
        _alert_table(telemetry.get("alerts", [])),
    ]
    chaos = doc.get("chaos")
    if isinstance(chaos, dict):
        sections.append("<h2>Fault detection timeline</h2>")
        sections.append(_chaos_section(chaos))
    cp = doc.get("critical_path")
    if isinstance(cp, dict):
        sections.append("<h2>Critical path</h2>")
        sections.append(_critical_section(cp))
    sections.append("<h2>Windowed series</h2>")
    sections.append(
        f'<p class="note">window = '
        f'{_fmt(telemetry.get("window_s"), 1)} sim-s; counter and '
        "histogram series show per-window deltas, gauges and p99 show "
        "levels</p>")
    sections.append(_series_section(telemetry))
    body = "\n".join(sections)
    return f"""<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<meta name="viewport" content="width=device-width, initial-scale=1">
<title>PSGraph telemetry — {_esc(title)}</title>
<style>{_css()}</style>
</head>
<body>
{body}
<script>{_JS}</script>
</body>
</html>
"""


def summary_lines(doc: Dict[str, object]) -> List[str]:
    """The plain-text summary of one telemetry document: run meta, SLO
    states, alerts, fault detection and the top 10 critical-path rows."""
    telemetry = doc.get("telemetry", {})
    meta = doc.get("meta", {})
    lines = []
    if meta:
        lines.append("run       : " + " ".join(
            f"{k}={v}" for k, v in sorted(meta.items())))
    lines.append(f"sim time  : {doc.get('sim_time_s', 0.0):.3f} s")
    lines.append(f"series    : {len(telemetry.get('series', {}))} "
                 f"({telemetry.get('ticks', 0)} ticks, window "
                 f"{telemetry.get('window_s', 0.0):g} sim-s)")
    for row in telemetry.get("slos", []):
        lines.append(
            f"slo       : {row.get('name'):<24} {row.get('state'):<10}"
            f" alerts={row.get('alerts')} "
            f"max_burn={row.get('max_burn_long', 0.0):.2f}"
        )
    for a in telemetry.get("alerts", []):
        resolved = a.get("resolved_at_s")
        tail = (f"resolved at {resolved:.3f} s"
                if isinstance(resolved, (int, float)) else "still firing")
        lines.append(
            f"alert     : {a.get('slo')} fired at "
            f"{a.get('fired_at_s', 0.0):.3f} s, {tail}"
        )
    for row in (doc.get("chaos") or {}).get("detection", []):
        if row.get("detected_at_s") is None:
            lines.append(f"fault     : {row.get('kind')} -> "
                         f"{row.get('target')}: NOT detected")
        else:
            lines.append(
                f"fault     : {row.get('kind')} -> {row.get('target')} "
                f"detected by {row.get('slo')} after "
                f"{row.get('detection_delay_s', 0.0):.3f} s"
            )
    cp = doc.get("critical_path")
    if isinstance(cp, dict):
        lines.append(f"critical  : table covers "
                     f"{cp.get('covered_pct', 0.0):.2f}% of sim time")
        for row in cp.get("table", [])[:10]:
            lines.append(
                f"  {row.get('pct', 0.0):6.2f}%  "
                f"{row.get('seconds', 0.0):10.4f} s  {row.get('label')}"
            )
    return lines

