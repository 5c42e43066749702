"""Private 4G/5G wireless network simulation.

This package replaces the paper's physical testbed -- srsRAN gNodeBs on USRP
B200/B210 software-defined radios, an Open5GS standalone core, sysmoISIM SIM
cards, and Raspberry Pi / laptop / smartphone user equipment with SIM7600G-H
(4G) and RM530N-GL (5G) USB modems -- with a calibrated model of the same
pipeline:

PHY (PRB grids, numerology, spectral efficiency, duplexing)
  -> MAC scheduler (per-slot PRB allocation, slicing)
  -> SDR front-end constraints (sample-rate ceilings)
  -> modem/host device constraints (the paper's device-type differences)
  -> 5G core (registration, PDU sessions, slice binding)
  -> iperf3-style uplink measurement.

Calibration constants live in :mod:`repro.radio.presets` and are documented
against the paper's measured anchors (Figs 4-6).
"""

from repro.radio.phy import (
    CarrierConfig,
    Numerology,
    prb_count,
    re_rate,
    spectral_efficiency,
)
from repro.radio.duplex import DuplexMode, TddPattern, FDD_FULL_UPLINK, TDD_UL_HEAVY
from repro.radio.sdr import SdrFrontEnd, USRP_B200, USRP_B210
from repro.radio.modems import Modem, SIM7600G_H, RM530N_GL, PHONE_4G_INTERNAL, PHONE_5G_INTERNAL
from repro.radio.devices import Device, DeviceClass, LAPTOP, RASPBERRY_PI, SMARTPHONE
from repro.radio.sim_cards import SimCard, SimProvisioner, AuthenticationError
from repro.radio.core5g import Core5G, RegistrationError, SessionError
from repro.radio.scheduler import MacScheduler, RoundRobinScheduler, ProportionalFairScheduler
from repro.radio.slicing import NetworkSlice, SliceConfig, SlicePolicy
from repro.radio.ue import UserEquipment
from repro.radio.state import UeStateArrays, rate_per_prb_table, sample_throughput_matrix
from repro.radio.scheduler import round_robin_rounds
from repro.radio.gnb import GNodeB
from repro.radio.network import PrivateCellularNetwork, NetworkDeployment
from repro.radio.iperf import IperfResult, run_downlink_test, run_uplink_test
from repro.radio.population import (
    CellPopulation,
    Distribution,
    RandomVariable,
    UEPopulation,
)

__all__ = [
    "CarrierConfig",
    "Numerology",
    "prb_count",
    "re_rate",
    "spectral_efficiency",
    "DuplexMode",
    "TddPattern",
    "FDD_FULL_UPLINK",
    "TDD_UL_HEAVY",
    "SdrFrontEnd",
    "USRP_B200",
    "USRP_B210",
    "Modem",
    "SIM7600G_H",
    "RM530N_GL",
    "PHONE_4G_INTERNAL",
    "PHONE_5G_INTERNAL",
    "Device",
    "DeviceClass",
    "LAPTOP",
    "RASPBERRY_PI",
    "SMARTPHONE",
    "SimCard",
    "SimProvisioner",
    "AuthenticationError",
    "Core5G",
    "RegistrationError",
    "SessionError",
    "MacScheduler",
    "RoundRobinScheduler",
    "ProportionalFairScheduler",
    "NetworkSlice",
    "SliceConfig",
    "SlicePolicy",
    "UserEquipment",
    "GNodeB",
    "PrivateCellularNetwork",
    "NetworkDeployment",
    "IperfResult",
    "run_uplink_test",
    "run_downlink_test",
    "UeStateArrays",
    "rate_per_prb_table",
    "sample_throughput_matrix",
    "round_robin_rounds",
    "CellPopulation",
    "Distribution",
    "RandomVariable",
    "UEPopulation",
]
