"""Cellular ecosystem substrate.

Subscriber identifiers, operators, radio model, core-network elements
(SGW/PGW/GTP), roaming agreements, eSIM provisioning, user equipment and
v-MNO core telemetry. Together these produce the attach sessions whose
observable surface (public IP, path structure, latency, bandwidth) the
measurement layer probes exactly like the paper probed the real Airalo.
"""

from repro._exports import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "PLMN": "identifiers",
    "IMSI": "identifiers",
    "IMSIRange": "identifiers",
    "generate_imei": "identifiers",
    "generate_iccid": "identifiers",
    "luhn_check_digit": "identifiers",
    "luhn_is_valid": "identifiers",
    "infer_imsi_prefixes": "identifiers",
    "RadioAccessTechnology": "radio",
    "RadioConditions": "radio",
    "RadioModel": "radio",
    "modulation_for_cqi": "radio",
    "MobileOperator": "mno",
    "OperatorKind": "mno",
    "OperatorRegistry": "mno",
    "DNSResolverSpec": "mno",
    "BandwidthPolicy": "mno",
    "SGW": "core",
    "PGWSite": "core",
    "GTPTunnel": "core",
    "PDNSession": "core",
    "RoamingArchitecture": "roaming",
    "RoamingAgreement": "roaming",
    "AgreementRegistry": "roaming",
    "PGWSelection": "roaming",
    "SIMProfile": "esim",
    "SIMKind": "esim",
    "RSPServer": "esim",
    "ProvisioningError": "esim",
    "issue_physical_sim": "esim",
    "SessionFactory": "attach",
    "UserEquipment": "ue",
    "AttachError": "ue",
    "AttachReject": "ue",
    "SimFlipError": "ue",
    "AttachTiming": "procedures",
    "estimate_attach_time_ms": "procedures",
    "NetworkSelector": "steering",
    "SteeringPolicy": "steering",
    "VisitedNetworkOption": "steering",
    "SignallingEvent": "signalling",
    "SignallingProfile": "signalling",
    "EVENT_SIZE_KB": "signalling",
    "NATIVE_PROFILE": "signalling",
    "AIRALO_PROFILE": "signalling",
    "ROAMER_PROFILE": "signalling",
    "CoreTelemetryGenerator": "telemetry",
    "SubscriberPopulation": "telemetry",
    "UsageRecord": "telemetry",
    "detect_airalo_imsis": "telemetry",
})
