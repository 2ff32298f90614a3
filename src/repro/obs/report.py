"""Self-contained static HTML dashboard over the windowed time series.

``python -m repro dashboard <protocol> [--compare ...]`` renders one
HTML file -- inline CSS + inline SVG, zero runtime dependencies, no
external fonts or scripts -- showing the trends the paper's evaluation
argues from: server chunk share falling as the overlays warm up (Figs
9-11), startup delay and stall rate over time (Figs 12-13), churn and
maintenance load (Fig 18).  In compare mode the same charts overlay
every protocol, one fixed color per protocol.

Rendering discipline:

* **Deterministic bytes.** The HTML is a pure function of the
  :class:`DashboardRun` payloads, which are pure functions of their
  specs -- no wall-clock timestamps, no environment probes -- so
  ``--jobs 1`` and ``--jobs 2`` builds are byte-identical (tested by
  ``tests/test_obs_report.py`` and diffed in CI).
* **Color carries identity, text carries values.**  Protocols own
  fixed palette slots (color follows the entity, never its position in
  a particular run list); all text is ink-colored.  The palette's
  adjacent pairs are colorblind-validated; dark mode is a selected
  palette behind ``prefers-color-scheme``, not an automatic flip.
* **Nothing is hover-gated.**  Charts carry a CSS-only crosshair +
  tooltip layer (every series' value at the hovered window), and every
  plotted number is also reachable in the per-run data tables.
"""

from __future__ import annotations

import html
import os
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import run_sweep
from repro.experiments.spec import ExperimentSpec
from repro.obs.timeseries import (
    DEFAULT_WINDOW_S,
    TimeSeriesTable,
    run_with_timeseries,
)

#: Fixed palette slot per protocol (light, dark) -- the entity->color
#: contract.  Slots are the first three of the validated categorical
#: order (blue, orange, aqua), which clear the colorblind floors on
#: every pairlist; extra/unknown protocols take the later slots.
PROTOCOL_COLORS: Dict[str, Tuple[str, str]] = {
    "socialtube": ("#2a78d6", "#3987e5"),
    "nettube": ("#eb6834", "#d95926"),
    "pavod": ("#1baf7a", "#199e70"),
}

#: Later validated categorical slots, handed to protocols (or cluster
#: series) beyond the three the paper compares, in fixed order.
_EXTRA_SLOTS: Tuple[Tuple[str, str], ...] = (
    ("#eda100", "#c98500"),
    ("#e87ba4", "#d55181"),
    ("#008300", "#008300"),
    ("#4a3aa7", "#9085e9"),
    ("#e34948", "#e66767"),
)

#: The charted per-window fields: (field, chart title, y-axis hint).
CHART_METRICS: Tuple[Tuple[str, str, str], ...] = (
    ("server_share", "Server chunk share", "fraction of shared chunks"),
    ("active_sessions", "Active sessions", "users in a session"),
    ("num_requests", "Video requests served", "per window"),
    ("startup_ms_mean", "Mean startup delay", "ms"),
    ("stall_rate", "Stalled-watch rate", "fraction of reports"),
    ("search_hops_mean", "Mean search hops", "hops to hit"),
    ("overlay_links", "Overlay links (total)", "maintained links"),
    ("tracker_lookups", "Tracker lookups", "per window"),
    ("server_requests", "Server fallback serves", "per window"),
)

#: Headline scalar columns shown in the metrics table: (key, label).
SCALAR_COLUMNS: Tuple[Tuple[str, str], ...] = (
    ("startup_delay_ms_mean", "startup ms (mean)"),
    ("peer_bandwidth_p50", "peer bw p50"),
    ("server_fallback_fraction", "server frac"),
    ("prefetch_hit_fraction", "prefetch hit"),
    ("mean_continuity_index", "continuity"),
    ("stall_fraction", "stalled watches"),
    ("mean_stall_ms", "mean stall ms"),
)

_PLOT = {"x0": 46.0, "x1": 544.0, "y0": 16.0, "y1": 206.0, "w": 560, "h": 240}


@dataclass
class DashboardRun:
    """One run's dashboard payload: identity, headline scalars, series.

    Deliberately plain (dataclass of builtins + the series table) so
    pool workers can pickle it back and rendering stays a pure
    function of a list of these.
    """

    protocol: str
    environment: str
    seed: int
    content_hash: str
    scalars: Dict[str, float] = field(default_factory=dict)
    table: TimeSeriesTable = field(default_factory=lambda: TimeSeriesTable(1.0, ""))


def _scalars_of(result) -> Dict[str, float]:
    """Headline scalars of an :class:`ExperimentResult` for the tiles/table."""
    return {key: getattr(result.metrics, key) for key, _label in SCALAR_COLUMNS}


def dashboard_run(
    spec: ExperimentSpec,
    window_s: float = DEFAULT_WINDOW_S,
    dataset: Optional[object] = None,
) -> DashboardRun:
    """Execute one spec and fold it into a :class:`DashboardRun`."""
    run = run_with_timeseries(spec, window_s=window_s, dataset=dataset)
    return DashboardRun(
        protocol=spec.protocol,
        environment=spec.environment,
        seed=spec.seed,
        content_hash=spec.content_hash(),
        scalars=_scalars_of(run.result),
        table=run.table,
    )


def collect_dashboard_runs(
    specs: Sequence[ExperimentSpec],
    window_s: float = DEFAULT_WINDOW_S,
    jobs: int = 1,
) -> List[DashboardRun]:
    """Collect dashboard payloads for several specs, serially or pooled.

    ``jobs>1`` fans out through :func:`repro.experiments.parallel.run_sweep`;
    each payload is a pure function of its spec, so the worker layout
    cannot change the rendered dashboard (CI diffs the HTML across
    ``--jobs 1/2``).
    """
    return run_sweep(
        specs, jobs=jobs, task=partial(dashboard_run, window_s=window_s)
    )


# ---------------------------------------------------------------------------
# formatting helpers


def _fmt(value: Any) -> str:
    """Human-scale deterministic number formatting for labels/tables."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int) or (isinstance(value, float) and value == int(value)):
        return f"{int(value):,}"
    if abs(value) < 1:
        return f"{value:.3f}"
    if abs(value) < 100:
        return f"{value:.1f}"
    return f"{value:,.0f}"


def _nice_ceiling(value: float) -> float:
    """Smallest 1/2/5 x 10^k at or above ``value`` (clean axis maxima)."""
    if value <= 0:
        return 1.0
    magnitude = 1.0
    while magnitude < value:
        magnitude *= 10.0
    while magnitude / 10.0 >= value:
        magnitude /= 10.0
    for factor in (0.1, 0.2, 0.5, 1.0):
        if magnitude * factor >= value:
            return magnitude * factor
    return magnitude


def _color_for(protocol: str, taken: Dict[str, Tuple[str, str]]) -> Tuple[str, str]:
    """The (light, dark) pair owned by ``protocol`` (stable across runs)."""
    if protocol in PROTOCOL_COLORS:
        return PROTOCOL_COLORS[protocol]
    if protocol not in taken:
        taken[protocol] = _EXTRA_SLOTS[len(taken) % len(_EXTRA_SLOTS)]
    return taken[protocol]


# ---------------------------------------------------------------------------
# SVG line chart


def _line_chart(
    chart_id: str,
    title: str,
    hint: str,
    series: List[Dict[str, Any]],
    window_s: float,
) -> str:
    """One metric card: legend (if >1 series), SVG lines, hover layer.

    ``series`` entries are ``{"label", "css" (a CSS class carrying the
    stroke/fill color), "values"}``; all series share the x grid (window
    index) and one y scale.  The hover layer is CSS-only: one invisible
    band per window whose ``:hover`` reveals a crosshair plus a tooltip
    listing every series' value at that window.
    """
    x0, x1, y0, y1 = _PLOT["x0"], _PLOT["x1"], _PLOT["y0"], _PLOT["y1"]
    n = max(len(entry["values"]) for entry in series) if series else 0
    if n == 0:
        return ""
    span = max(n - 1, 1)
    y_max = _nice_ceiling(
        max((max(entry["values"]) for entry in series if entry["values"]), default=1.0)
    )

    def x_at(i: int) -> float:
        return x0 + (x1 - x0) * i / span

    def y_at(v: float) -> float:
        return y1 - (y1 - y0) * (v / y_max)

    parts: List[str] = []
    parts.append(f'<div class="card" id="{html.escape(chart_id)}">')
    parts.append(
        f'<div class="chart-head"><span class="chart-title">{html.escape(title)}</span>'
        f'<span class="chart-hint">{html.escape(hint)}</span></div>'
    )
    if len(series) > 1:
        keys = "".join(
            f'<span class="lg"><svg width="14" height="6" aria-hidden="true">'
            f'<line x1="1" y1="3" x2="13" y2="3" class="{entry["css"]}" '
            f'stroke-width="2.5" stroke-linecap="round"/></svg>'
            f"{html.escape(entry['label'])}</span>"
            for entry in series
        )
        parts.append(f'<div class="legend">{keys}</div>')
    parts.append(
        f'<svg viewBox="0 0 {_PLOT["w"]} {_PLOT["h"]}" role="img" '
        f'aria-label="{html.escape(title)}">'
    )
    # Gridlines + y ticks (labels at 0 / half / max).
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        gy = y1 - (y1 - y0) * frac
        cls = "axis" if frac == 0.0 else "grid"
        parts.append(
            f'<line x1="{x0}" y1="{gy:.1f}" x2="{x1}" y2="{gy:.1f}" class="{cls}"/>'
        )
        if frac in (0.0, 0.5, 1.0):
            parts.append(
                f'<text x="{x0 - 6}" y="{gy + 3.5:.1f}" class="tick" '
                f'text-anchor="end">{_fmt(y_max * frac)}</text>'
            )
    # X ticks: every ~sixth window, as minutes of virtual time.
    stride = max(1, n // 6)
    for i in range(0, n, stride):
        parts.append(
            f'<text x="{x_at(i):.1f}" y="{y1 + 16:.1f}" class="tick" '
            f'text-anchor="middle">{_fmt(i * window_s / 60.0)}m</text>'
        )
    # Series lines + ringed end markers.
    for entry in series:
        values = entry["values"]
        points = " ".join(
            f"{x_at(i):.1f},{y_at(v):.1f}" for i, v in enumerate(values)
        )
        parts.append(
            f'<polyline points="{points}" fill="none" class="{entry["css"]}" '
            f'stroke-width="2" stroke-linejoin="round" stroke-linecap="round"/>'
        )
        if values:
            i = len(values) - 1
            parts.append(
                f'<circle cx="{x_at(i):.1f}" cy="{y_at(values[i]):.1f}" r="4" '
                f'class="dot {entry["css"]}"/>'
            )
    # CSS-only hover layer: one band per window.
    band = (x1 - x0) / span
    tip_w = 164.0
    tip_h = 20.0 + 15.0 * len(series)
    for i in range(n):
        cx = x_at(i)
        left = max(x0, cx - band / 2.0)
        right = min(x1, cx + band / 2.0)
        tx = cx + 10.0 if cx + 10.0 + tip_w <= x1 else cx - 10.0 - tip_w
        ty = y0 + 4.0
        rows = [
            f'<text x="{tx + 8:.1f}" y="{ty + 14:.1f}" class="tipt">'
            f"window {i} &#183; {_fmt(i * window_s / 60.0)}m</text>"
        ]
        for j, entry in enumerate(series):
            ly = ty + 30.0 + 15.0 * j
            value = entry["values"][i] if i < len(entry["values"]) else 0
            rows.append(
                f'<line x1="{tx + 8:.1f}" y1="{ly - 3.5:.1f}" x2="{tx + 20:.1f}" '
                f'y2="{ly - 3.5:.1f}" class="{entry["css"]}" stroke-width="2.5" '
                f'stroke-linecap="round"/>'
            )
            rows.append(
                f'<text x="{tx + 26:.1f}" y="{ly:.1f}" class="tipv">{_fmt(value)}'
                f'<tspan class="tips"> {html.escape(entry["label"])}</tspan></text>'
            )
        parts.append(
            '<g class="hb">'
            f'<rect x="{left:.1f}" y="{y0}" width="{max(right - left, 1.0):.1f}" '
            f'height="{y1 - y0}" class="hit"/>'
            f'<line x1="{cx:.1f}" y1="{y0}" x2="{cx:.1f}" y2="{y1}" class="ch"/>'
            f'<g class="tip"><rect x="{tx:.1f}" y="{ty:.1f}" width="{tip_w}" '
            f'height="{tip_h:.1f}" rx="4" class="tipbox"/>{"".join(rows)}</g>'
            "</g>"
        )
    parts.append("</svg></div>")
    return "".join(parts)


def _cluster_series(table: TimeSeriesTable, top: int = 4) -> List[Dict[str, Any]]:
    """Per-cluster request series: the ``top`` busiest clusters + Other.

    Folding beyond ``top`` keeps the chart within the palette slots
    that stay distinguishable; "Other" wears the muted gray so it never
    competes with a real cluster.
    """
    totals = [
        (sum(table.cluster_series(cid)), cid) for cid in table.cluster_ids()
    ]
    totals.sort(key=lambda item: (-item[0], int(item[1])))
    keep = [cid for _total, cid in totals[:top]]
    rest = [cid for _total, cid in totals[top:]]
    series: List[Dict[str, Any]] = []
    for rank, cid in enumerate(keep):
        series.append(
            {
                "label": f"cluster {cid}",
                "css": f"ck{rank}",
                "values": table.cluster_series(cid),
            }
        )
    if rest:
        other = [0] * table.num_windows
        for cid in rest:
            for i, value in enumerate(table.cluster_series(cid)):
                other[i] += value
        series.append({"label": "other", "css": "ckx", "values": other})
    return series


# ---------------------------------------------------------------------------
# page assembly


def _page_css(runs: List[DashboardRun]) -> str:
    """The inline stylesheet: chrome tokens, per-protocol series classes."""
    taken: Dict[str, Tuple[str, str]] = {}
    light_rules = []
    dark_rules = []
    for run in runs:
        light, dark = _color_for(run.protocol, taken)
        css = f"s-{run.protocol}"
        light_rules.append(f".{css}{{stroke:{light};fill:{light}}}")
        dark_rules.append(f".{css}{{stroke:{dark};fill:{dark}}}")
    cluster_slots = (
        ("ck0", "#2a78d6", "#3987e5"),
        ("ck1", "#eb6834", "#d95926"),
        ("ck2", "#1baf7a", "#199e70"),
        ("ck3", "#eda100", "#c98500"),
        ("ckx", "#898781", "#898781"),
    )
    for css, light, dark in cluster_slots:
        light_rules.append(f".{css}{{stroke:{light};fill:{light}}}")
        dark_rules.append(f".{css}{{stroke:{dark};fill:{dark}}}")
    return f"""
:root {{
  color-scheme: light;
  --surface: #fcfcfb; --plane: #f9f9f7;
  --ink: #0b0b0b; --ink2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --axis: #c3c2b7;
  --ring: rgba(11,11,11,0.10);
}}
@media (prefers-color-scheme: dark) {{
  :root {{
    color-scheme: dark;
    --surface: #1a1a19; --plane: #0d0d0d;
    --ink: #ffffff; --ink2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --axis: #383835;
    --ring: rgba(255,255,255,0.10);
  }}
  {' '.join(dark_rules)}
}}
* {{ box-sizing: border-box; }}
body {{
  margin: 0; padding: 24px; background: var(--plane); color: var(--ink);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; font-size: 14px;
}}
h1 {{ font-size: 20px; margin: 0 0 4px; }}
.sub {{ color: var(--ink2); margin-bottom: 20px; }}
.sub code {{ font-size: 12px; color: var(--muted); }}
.tiles {{ display: flex; flex-wrap: wrap; gap: 12px; margin-bottom: 20px; }}
.tile {{
  background: var(--surface); border: 1px solid var(--ring); border-radius: 8px;
  padding: 12px 16px; min-width: 150px;
}}
.tile .lbl {{ color: var(--ink2); font-size: 12px; }}
.tile .val {{ font-size: 28px; font-weight: 600; margin-top: 2px; }}
.grid2 {{ display: grid; grid-template-columns: repeat(auto-fill, minmax(420px, 1fr));
         gap: 16px; }}
.card {{ background: var(--surface); border: 1px solid var(--ring);
        border-radius: 8px; padding: 14px 14px 6px; }}
.chart-head {{ display: flex; justify-content: space-between; align-items: baseline; }}
.chart-title {{ font-weight: 600; }}
.chart-hint {{ color: var(--muted); font-size: 12px; }}
.legend {{ display: flex; gap: 14px; margin: 6px 0 2px; color: var(--ink2);
          font-size: 12px; }}
.lg {{ display: inline-flex; align-items: center; gap: 5px; }}
svg {{ width: 100%; height: auto; display: block; }}
.grid {{ stroke: var(--grid); stroke-width: 1; }}
.axis {{ stroke: var(--axis); stroke-width: 1; }}
.tick {{ fill: var(--muted); font-size: 10px; font-variant-numeric: tabular-nums; }}
.dot {{ stroke: var(--surface); stroke-width: 2; }}
.hit {{ fill: transparent; }}
.ch {{ stroke: var(--muted); stroke-width: 1; }}
.tip, .ch {{ opacity: 0; pointer-events: none; transition: opacity .08s; }}
.hb:hover .tip, .hb:hover .ch {{ opacity: 1; }}
.tipbox {{ fill: var(--surface); stroke: var(--grid); }}
.tipt {{ fill: var(--ink2); font-size: 10px; }}
.tipv {{ fill: var(--ink); font-size: 11px; font-weight: 600;
        font-variant-numeric: tabular-nums; }}
.tips {{ fill: var(--ink2); font-weight: 400; }}
table {{ border-collapse: collapse; background: var(--surface);
        border: 1px solid var(--ring); border-radius: 8px; margin-bottom: 20px; }}
th, td {{ padding: 6px 12px; text-align: right; font-variant-numeric: tabular-nums; }}
th {{ color: var(--ink2); font-weight: 600; border-bottom: 1px solid var(--grid); }}
td:first-child, th:first-child {{ text-align: left; }}
details {{ margin: 16px 0; }}
summary {{ cursor: pointer; color: var(--ink2); }}
details table {{ font-size: 12px; margin-top: 8px; }}
{' '.join(light_rules)}
"""


def _scalar_table(runs: List[DashboardRun]) -> str:
    """The headline metrics table: one row per run, the full metric set."""
    head = "".join(f"<th>{html.escape(label)}</th>" for _key, label in SCALAR_COLUMNS)
    body = []
    for run in runs:
        cells = "".join(
            f"<td>{_fmt(run.scalars.get(key, 0.0))}</td>" for key, _label in SCALAR_COLUMNS
        )
        body.append(f"<tr><td>{html.escape(run.protocol)}</td>{cells}</tr>")
    return f"<table><tr><th>protocol</th>{head}</tr>{''.join(body)}</table>"


def _window_table(run: DashboardRun) -> str:
    """Collapsible per-window data table (the no-hover path to every value)."""
    fields = [name for name, _title, _hint in CHART_METRICS]
    head = "".join(f"<th>{html.escape(name)}</th>" for name in fields)
    body = []
    for record in run.table.windows:
        cells = "".join(f"<td>{_fmt(record[name])}</td>" for name in fields)
        body.append(f"<tr><td>{record['window']}</td>{cells}</tr>")
    return (
        f"<details><summary>Window data &#8212; {html.escape(run.protocol)} "
        f"({run.table.num_windows} windows)</summary>"
        f"<table><tr><th>window</th>{head}</tr>{''.join(body)}</table></details>"
    )


def render_dashboard(runs: List[DashboardRun], window_s: float = DEFAULT_WINDOW_S) -> str:
    """The full dashboard page for one or more runs, as an HTML string.

    Single run: headline tiles + per-metric charts + the run's
    per-cluster request-load chart.  Multiple runs: the same charts
    with one line per protocol (fixed protocol colors), the scalar
    comparison table, and one cluster chart per run.
    """
    if not runs:
        raise ValueError("render_dashboard needs at least one run")
    primary = runs[0]
    title = " vs ".join(run.protocol for run in runs)
    hashes = ", ".join(f"{run.protocol}:{run.content_hash[:12]}" for run in runs)
    parts: List[str] = []
    parts.append(
        "<!DOCTYPE html>\n<html lang=\"en\"><head><meta charset=\"utf-8\">"
        f"<title>{html.escape(title)} &#8212; time series</title>"
        f"<style>{_page_css(runs)}</style></head><body>"
    )
    parts.append(f"<h1>{html.escape(title)} &#8212; sim-clock time series</h1>")
    parts.append(
        f'<div class="sub">window {_fmt(window_s)}s &#183; seed {primary.seed} '
        f"&#183; environment {html.escape(primary.environment)} &#183; "
        f"<code>{html.escape(hashes)}</code></div>"
    )
    tiles = (
        ("Startup delay", f"{_fmt(primary.scalars.get('startup_delay_ms_mean', 0.0))} ms"),
        ("Server fraction", _fmt(primary.scalars.get("server_fallback_fraction", 0.0))),
        ("Continuity index", _fmt(primary.scalars.get("mean_continuity_index", 0.0))),
        ("Stalled watches", _fmt(primary.scalars.get("stall_fraction", 0.0))),
    )
    tile_html = "".join(
        f'<div class="tile"><div class="lbl">{html.escape(label)} '
        f"&#8212; {html.escape(primary.protocol)}</div>"
        f'<div class="val">{value}</div></div>'
        for label, value in tiles
    )
    parts.append(f'<div class="tiles">{tile_html}</div>')
    parts.append(_scalar_table(runs))
    parts.append('<div class="grid2">')
    for name, chart_title, hint in CHART_METRICS:
        series = [
            {
                "label": run.protocol,
                "css": f"s-{run.protocol}",
                "values": run.table.series(name),
            }
            for run in runs
        ]
        parts.append(_line_chart(f"m-{name}", chart_title, hint, series, window_s))
    for run in runs:
        parts.append(
            _line_chart(
                f"c-{run.protocol}",
                f"Per-cluster request load &#8212; {run.protocol}",
                "requests per window",
                _cluster_series(run.table),
                window_s,
            )
        )
    parts.append("</div>")
    for run in runs:
        parts.append(_window_table(run))
    parts.append("</body></html>\n")
    return "".join(parts)


def dashboard_filename(runs: Sequence[DashboardRun]) -> str:
    """Artifact name keyed by the compared protocols + primary hash."""
    protocols = "_vs_".join(run.protocol for run in runs)
    return f"dashboard_{protocols}_{runs[0].content_hash[:12]}.html"


def write_dashboard(path: str, content: str) -> str:
    """Write dashboard HTML to ``path`` (creating parents); returns ``path``."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(content)
    return path
