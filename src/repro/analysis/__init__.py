"""Analysis layer.

The paper's methodology distilled into reusable pieces: the roaming-
architecture classifier (public IP ASN vs b-MNO/v-MNO ASNs), traceroute
path analytics (private/public split, ASN diversity, PGW RTT series),
statistical machinery (boxplot summaries, CDFs, Welch t-test, Levene),
and headline latency/bandwidth metrics.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "ClassifiedBreakout": "classify",
    "classify_architecture": "classify",
    "classify_session_context": "classify",
    "build_breakout_table": "classify",
    "BoxplotSummary": "stats",
    "boxplot_summary": "stats",
    "empirical_cdf": "stats",
    "cdf_at": "stats",
    "percent_above": "stats",
    "percent_below": "stats",
    "welch_ttest": "stats",
    "levene_test": "stats",
    "path_length_series": "paths",
    "unique_asn_medians": "paths",
    "pgw_rtt_values": "paths",
    "private_share_values": "paths",
    "latency_inflation_by_architecture": "metrics",
    "high_latency_share": "metrics",
    "speed_categories": "metrics",
    "SPEED_SLOW_MBPS": "metrics",
    "SPEED_FAST_MBPS": "metrics",
    "LATENCY_BAD_MS": "metrics",
    "GeoExperience": "jurisdiction",
    "assess_geo_experience": "jurisdiction",
    "AuditFinding": "audit",
    "AuditPlan": "audit",
    "ThickMnaAuditor": "audit",
    "render_findings": "audit",
})
