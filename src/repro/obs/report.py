"""Static HTML dashboard over the history store (``repro report``).

Zero dependencies, zero scripts: one self-contained HTML file with
inline CSS, so it can be archived as a CI artifact and opened anywhere.
Per comparability group it renders a trend table (artefact rows, one
column per recent run, wall times with regression verdicts highlighted),
the verdicts on the group's latest run as :func:`repro.obs.regress.judge`
gives them to ``repro regress``, and, when the newest run recorded a
trace that is still on disk, the per-phase attribution and critical path
from :mod:`repro.obs.critical`.
"""

from __future__ import annotations

import html
import pathlib
import time
from typing import Dict, List, Optional, Sequence, Union

from repro.obs.critical import render_critical
from repro.obs.history import HistoryStore, RunRecord
from repro.obs.regress import judge
from repro.obs.sink import load_trace

_CSS = """
body { font-family: -apple-system, 'Segoe UI', Roboto, sans-serif;
       margin: 2rem auto; max-width: 72rem; color: #1a1a24; }
h1 { font-size: 1.4rem; } h2 { font-size: 1.1rem; margin-top: 2rem; }
table { border-collapse: collapse; font-size: 0.85rem; margin: 0.5rem 0; }
th, td { border: 1px solid #d7d7e0; padding: 0.25rem 0.55rem;
         text-align: right; font-variant-numeric: tabular-nums; }
th { background: #f2f2f7; } td.name, th.name { text-align: left;
     font-family: ui-monospace, monospace; }
td.bad { background: #ffe3e3; font-weight: 600; }
td.err { background: #ffd4a8; font-weight: 600; }
pre { background: #f7f7fa; border: 1px solid #d7d7e0; padding: 0.75rem;
      overflow-x: auto; font-size: 0.8rem; }
p.meta, td.meta { color: #6b6b7b; font-size: 0.8rem; }
.ok-badge { color: #176e2c; } .fail-badge { color: #a61b1b; }
"""


def _fmt_wall(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1000:.0f}ms"


def _trend_table(
    records: List[RunRecord], flagged: Dict[str, str]
) -> List[str]:
    """Artefact rows x run columns; ``flagged`` marks latest-run cells."""
    artefact_ids = sorted({
        artefact_id
        for record in records
        for artefact_id in record.artefacts
    })
    out = ["<table>", "<tr><th class=name>artefact</th>"]
    for record in records:
        out.append(f"<th title={html.escape(repr(record.run_id))}>"
                   f"{html.escape(record.run_id[-8:])}</th>")
    out.append("</tr>")
    for artefact_id in artefact_ids:
        out.append(f"<tr><td class=name>{html.escape(artefact_id)}</td>")
        for index, record in enumerate(records):
            stats = record.artefacts.get(artefact_id)
            if stats is None:
                out.append("<td>-</td>")
                continue
            latest = index == len(records) - 1
            css = ""
            title = ""
            if stats.status != "ok":
                css, title = "err", stats.status
            elif latest and artefact_id in flagged:
                css, title = "bad", flagged[artefact_id]
            cell = _fmt_wall(stats.wall_s) if stats.status == "ok" else "ERR"
            out.append(
                f"<td{' class=' + css if css else ''}"
                f"{' title=' + repr(html.escape(title)) if title else ''}>"
                f"{cell}</td>"
            )
        out.append("</tr>")
    out.append("</table>")
    return out


def render_html(
    store: HistoryStore, limit: int = 12, records: Optional[Sequence[RunRecord]] = None
) -> str:
    """The dashboard for every comparability group in ``store``.

    Pass the store's ``records`` if they are loaded already."""
    if records is None:
        records = store.load()
    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        "<title>repro run history</title>",
        f"<style>{_CSS}</style></head><body>",
        "<h1>repro — cross-run history</h1>",
        f"<p class=meta>history: {html.escape(str(store.path))} · "
        f"{len(records)} recorded run(s) · generated "
        f"{time.strftime('%Y-%m-%d %H:%M:%S UTC', time.gmtime())}</p>",
    ]
    if not records:
        parts.append("<p>No runs recorded yet. Run "
                     "<code>python -m repro run-all --history DIR</code>.</p>")
        parts.append("</body></html>")
        return "\n".join(parts)

    groups: Dict[str, List[RunRecord]] = {}
    for record in records:
        groups.setdefault(record.group_key(), []).append(record)

    for key in sorted(groups):
        window = groups[key][-limit:]
        latest = window[-1]
        parts.append(f"<h2>{html.escape(key)}</h2>")
        badge = (
            "<span class=ok-badge>ok</span>" if latest.ok
            else "<span class=fail-badge>FAILED</span>"
        )
        parts.append(
            f"<p class=meta>latest run {html.escape(latest.run_id)} on "
            f"{html.escape(latest.host)}: {badge} · "
            f"total {_fmt_wall(latest.total_wall_s)} "
            f"(warm-up {_fmt_wall(latest.warm_wall_s)}) · "
            f"{len(window)} of {len(groups[key])} run(s) shown</p>"
        )
        # Each group's latest run is judged by the rule `repro regress`
        # applies, so the two never disagree about a run.
        regression = judge(groups[key], latest)
        flagged: Dict[str, str] = {}
        if regression is None:
            verdict_block = ("<p class=meta>nothing to judge: no earlier "
                             "comparable run and no SLO budget</p>")
        else:
            for verdict in regression.verdicts:
                flagged.setdefault(
                    verdict.artefact_id, f"{verdict.kind}: {verdict.detail}"
                )
            verdict_block = ("<pre class=verdicts>"
                             + html.escape(regression.render()) + "</pre>")
        parts.extend(_trend_table(window, flagged))
        parts.append(verdict_block)
        trace_path = latest.trace_path
        if trace_path and pathlib.Path(trace_path).is_file():
            try:
                trace = load_trace(trace_path)
            except (OSError, ValueError):
                trace = None
            if trace is not None and trace.spans:
                parts.append("<h3>latest critical path</h3>")
                parts.append(
                    f"<p class=meta>{html.escape(trace_path)}</p>"
                )
                parts.append(
                    "<pre>" + html.escape(render_critical(trace)) + "</pre>"
                )
    parts.append("</body></html>")
    return "\n".join(parts)


def write_html(
    store: HistoryStore, path: Union[str, "pathlib.Path"], limit: int = 12,
    records: Optional[Sequence[RunRecord]] = None,
) -> pathlib.Path:
    """Render the dashboard and write it to ``path`` atomically; returns the path."""
    from repro.core.cache import atomic_write

    text = render_html(store, limit=limit, records=records)
    atomic_write(path, lambda handle: handle.write(text), mode="w")
    return pathlib.Path(path)
