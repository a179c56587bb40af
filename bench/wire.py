"""The one module that reaches past the public exports, for the wire codec.

``repro.system`` exports the clients and the server but not the message
types or ``encode_message`` / ``decode_message``.  The gateway client needs
a few message types, and the layers with no constructor seam (``bitmap``,
``system.protocol``) are measured by replaying captured regions and
notifications through the codec's public functions — so everything taken
from ``repro.system.protocol`` is named here, once.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Dict, List, Sequence, Tuple

from repro.system.protocol import (  # noqa: F401  (re-exported for bench.fanout)
    LocationReport,
    NotificationMessage,
    ResyncMessage,
    SafeRegionDelta,
    SafeRegionPush,
    cells_from_delta,
    decode_message,
    encode_message,
    notification_for,
    region_from_push,
    region_push_for,
    subscribe_message_for,
)


def _per_call_us(fn, items: Sequence) -> Tuple[float, List]:
    """Median microseconds of ``fn(item)`` over ``items``, and the results."""
    times, results = [], []
    for item in items:
        started = perf_counter()
        result = fn(item)
        times.append(perf_counter() - started)
        results.append(result)
    return (statistics.median(times) * 1e6 if times else 0.0), results


def codec_costs(regions: Sequence, notifications: Sequence, grid) -> Dict[str, float]:
    """Replay captured ``(sub_id, region)`` pairs and notifications through
    the WAH encoder and the frame codec, timing each call.

    Returns the ``bitmap.*`` and ``system.protocol.*`` per-call numbers; a
    sample the run never produced reads 0.
    """
    bitmap_us, pushes = _per_call_us(lambda item: region_push_for(*item), regions)
    region_encode_us, region_frames = _per_call_us(encode_message, pushes)
    region_decode_us, _ = _per_call_us(
        lambda frame: region_from_push(decode_message(frame), grid), region_frames
    )
    messages = [notification_for(n.sub_id, n.event, n.seq) for n in notifications]
    note_encode_us, note_frames = _per_call_us(encode_message, messages)
    note_decode_us, _ = _per_call_us(decode_message, note_frames)
    return {
        "bitmap.encode_us_per_region": bitmap_us,
        "bitmap.bytes_per_region": (
            statistics.mean(push.bitmap.compressed_bytes() for push in pushes)
            if pushes else 0.0
        ),
        "system.protocol.encode_us_per_region": region_encode_us,
        "system.protocol.decode_us_per_region": region_decode_us,
        "system.protocol.encode_us_per_notification": note_encode_us,
        "system.protocol.decode_us_per_notification": note_decode_us,
        "system.protocol.bytes_per_notification": (
            statistics.mean(map(len, note_frames)) if note_frames else 0.0
        ),
    }
