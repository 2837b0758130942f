"""Reference platforms for the Table II comparison.

The paper compares its accelerator against published numbers: CPU and GPU
implementations of MCD-based BayesNNs (quoted from TPDS'22) and four prior
FPGA accelerators (VIBNN/ASPLOS'18, BYNQNET/DATE'20, DAC'21, TPDS'22).  This
module records those published figures verbatim — they are comparison
*inputs*, not something we re-measure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PlatformResult", "PUBLISHED_BASELINES"]


@dataclass(frozen=True)
class PlatformResult:
    """One row of the Table II comparison."""

    name: str
    platform: str
    frequency_mhz: float
    technology_nm: int
    power_w: float
    latency_ms: float

    @property
    def energy_per_image_j(self) -> float:
        """Energy per image in joules (power x latency)."""
        return self.power_w * self.latency_ms / 1000.0

    def as_row(self) -> dict:
        return {
            "name": self.name,
            "platform": self.platform,
            "frequency_mhz": self.frequency_mhz,
            "technology_nm": self.technology_nm,
            "power_w": self.power_w,
            "latency_ms": self.latency_ms,
            "energy_per_image_j": self.energy_per_image_j,
        }


#: Published comparison points quoted by the paper (Table II), keyed by the
#: label used in the table.  Our own design is *not* in this dict — it is
#: produced by the accelerator model at benchmark time.
PUBLISHED_BASELINES: dict[str, PlatformResult] = {
    "CPU": PlatformResult(
        name="CPU",
        platform="Intel Core i9-9900K",
        frequency_mhz=3600.0,
        technology_nm=14,
        power_w=205.0,
        latency_ms=1.26,
    ),
    "GPU": PlatformResult(
        name="GPU",
        platform="NVIDIA RTX 2080",
        frequency_mhz=1545.0,
        technology_nm=12,
        power_w=236.0,
        latency_ms=0.57,
    ),
    "ASPLOS18": PlatformResult(
        name="ASPLOS'18 (VIBNN)",
        platform="Altera Cyclone V",
        frequency_mhz=213.0,
        technology_nm=28,
        power_w=6.11,
        latency_ms=5.5,
    ),
    "DATE20": PlatformResult(
        name="DATE'20 (BYNQNET)",
        platform="Zynq XC7Z020",
        frequency_mhz=200.0,
        technology_nm=28,
        power_w=2.76,
        latency_ms=4.5,
    ),
    "DAC21": PlatformResult(
        name="DAC'21",
        platform="Arria 10 GX1150",
        frequency_mhz=225.0,
        technology_nm=20,
        power_w=45.0,
        latency_ms=0.42,
    ),
    "TPDS22": PlatformResult(
        name="TPDS'22",
        platform="Arria 10 GX1150",
        frequency_mhz=220.0,
        technology_nm=20,
        power_w=43.6,
        latency_ms=0.32,
    ),
}
