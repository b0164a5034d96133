"""QoS-sensitive video streaming service (frame-rate properties)."""

from .components import (
    COMPRESSED_FRAME_BYTES,
    PackagerComponent,
    RAW_FRAME_BYTES,
    VIDEO_COMPONENT_CLASSES,
    VideoClientComponent,
    VideoSourceComponent,
    ViewVideoSourceComponent,
)
from .spec import (
    CLIENT_MIN_FPS,
    COMPRESSED_MBPS_PER_FPS,
    RAW_MBPS_PER_FPS,
    SOURCE_FPS,
    build_video_spec,
)
from .translator import video_translator

__all__ = [
    "build_video_spec",
    "video_translator",
    "VIDEO_COMPONENT_CLASSES",
    "VideoClientComponent",
    "PackagerComponent",
    "VideoSourceComponent",
    "ViewVideoSourceComponent",
    "RAW_MBPS_PER_FPS",
    "COMPRESSED_MBPS_PER_FPS",
    "SOURCE_FPS",
    "CLIENT_MIN_FPS",
    "RAW_FRAME_BYTES",
    "COMPRESSED_FRAME_BYTES",
]
