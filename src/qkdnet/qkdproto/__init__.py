"""Classical post-processing pipeline: detections in, shared secret key out.

Stages follow the usual order: sifting, error-rate sampling, Cascade
reconciliation, entropy estimation, privacy amplification, authentication.
"""

from .sifting import SiftingProtocol, sift_bb84_events, sift_sarg_events
from .qber import QberEstimate, estimate_qber
from .cascade import reconcile_cascade
from .secrecy import SECURITY_MARGIN_BITS, EstimatorKind, multi_photon_fraction, privacy_amplify, secret_length, usable_fraction
from .auth import AUTH_KEY_BITS_PER_TAG, TAG_BITS, auth_tag, verify_tag
from .wire import Record, RecordType, WIRE_VERSION, encode_record

__all__ = [
    "SiftingProtocol",
    "sift_bb84_events",
    "sift_sarg_events",
    "QberEstimate",
    "estimate_qber",
    "reconcile_cascade",
    "SECURITY_MARGIN_BITS",
    "EstimatorKind",
    "multi_photon_fraction",
    "privacy_amplify",
    "secret_length",
    "usable_fraction",
    "AUTH_KEY_BITS_PER_TAG",
    "TAG_BITS",
    "auth_tag",
    "verify_tag",
    "Record",
    "RecordType",
    "WIRE_VERSION",
    "encode_record",
]
