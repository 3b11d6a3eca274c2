//! IEEE 802.11 DCF protocol parameters and derived channel-time constants.
//!
//! Defaults reproduce Table I of the paper exactly (1 Mbit/s DSSS-style
//! timing): 8184-bit payload, 272-bit MAC header, 128-bit PHY header,
//! 112-bit ACK/CTS and 160-bit RTS bodies (each sent behind a PHY header),
//! σ = 50 µs, SIFS = 28 µs, DIFS = 128 µs.

use serde::{Deserialize, Serialize};

use crate::error::DcfError;
use crate::units::{BitRate, Bits, MicroSecs};

/// Channel access mechanism of IEEE 802.11 DCF.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub enum AccessMode {
    /// Two-way handshake (DATA/ACK). Collisions waste a whole data frame.
    #[default]
    Basic,
    /// Four-way handshake (RTS/CTS/DATA/ACK). Collisions waste only an RTS.
    RtsCts,
}

impl AccessMode {
    /// All access modes, in presentation order (basic first, as in the paper).
    pub const ALL: [AccessMode; 2] = [AccessMode::Basic, AccessMode::RtsCts];
}

impl core::fmt::Display for AccessMode {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AccessMode::Basic => write!(f, "basic"),
            AccessMode::RtsCts => write!(f, "RTS/CTS"),
        }
    }
}

/// PHY-level timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PhyParams {
    /// Empty slot duration σ.
    pub slot: MicroSecs,
    /// Short inter-frame space.
    pub sifs: MicroSecs,
    /// DCF inter-frame space.
    pub difs: MicroSecs,
    /// PHY preamble + header size, prepended to every frame on air.
    pub phy_header: Bits,
    /// Channel bit rate.
    pub bit_rate: BitRate,
}

impl Default for PhyParams {
    /// Table I values.
    fn default() -> Self {
        PhyParams {
            slot: MicroSecs::new(50.0),
            sifs: MicroSecs::new(28.0),
            difs: MicroSecs::new(128.0),
            phy_header: Bits::new(128),
            bit_rate: BitRate::default(),
        }
    }
}

/// MAC-level frame sizes.
///
/// `ack`, `rts` and `cts` are the MAC bodies; on air each is preceded by the
/// PHY header (the paper's "112 bits + PHY header" convention).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct FrameParams {
    /// Data payload size (the paper assumes all packets equal-sized).
    pub payload: Bits,
    /// MAC header of a data frame.
    pub mac_header: Bits,
    /// ACK body.
    pub ack: Bits,
    /// RTS body.
    pub rts: Bits,
    /// CTS body.
    pub cts: Bits,
}

impl Default for FrameParams {
    /// Table I values.
    fn default() -> Self {
        FrameParams {
            payload: Bits::new(8184),
            mac_header: Bits::new(272),
            ack: Bits::new(112),
            rts: Bits::new(160),
            cts: Bits::new(112),
        }
    }
}

/// Complete configuration of the saturated DCF model.
///
/// Combines PHY timing, frame sizes, the access mode, and the backoff
/// parameters of the extended Bianchi chain: each node `i` draws its
/// stage-`j` backoff uniformly from `[0, 2^j·W_i − 1]` for `j ≤ m` (the CW
/// stops doubling at stage `m`, the *maximum backoff stage*).
///
/// # Examples
///
/// ```
/// use macgame_dcf::params::{AccessMode, DcfParams};
///
/// let params = DcfParams::builder().access_mode(AccessMode::RtsCts).build()?;
/// assert!(params.timings().collision_time < params.timings().success_time);
/// # Ok::<(), macgame_dcf::DcfError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DcfParams {
    phy: PhyParams,
    frames: FrameParams,
    access_mode: AccessMode,
    max_backoff_stage: u32,
}

impl Default for DcfParams {
    fn default() -> Self {
        DcfParams {
            phy: PhyParams::default(),
            frames: FrameParams::default(),
            access_mode: AccessMode::Basic,
            max_backoff_stage: 5,
        }
    }
}

impl DcfParams {
    /// Starts building a configuration from the Table I defaults.
    #[must_use]
    pub fn builder() -> DcfParamsBuilder {
        DcfParamsBuilder::new()
    }

    /// PHY timing parameters.
    #[must_use]
    pub fn phy(&self) -> &PhyParams {
        &self.phy
    }

    /// Frame sizes.
    #[must_use]
    pub fn frames(&self) -> &FrameParams {
        &self.frames
    }

    /// Channel access mechanism.
    #[must_use]
    pub fn access_mode(&self) -> AccessMode {
        self.access_mode
    }

    /// Maximum backoff stage `m` (CW doubles up to `2^m · W`).
    ///
    /// The paper leaves `m` unspecified; the default is Bianchi's `m = 5`.
    #[must_use]
    pub fn max_backoff_stage(&self) -> u32 {
        self.max_backoff_stage
    }

    /// Empty slot duration σ.
    #[must_use]
    pub fn sigma(&self) -> MicroSecs {
        self.phy.slot
    }

    /// Time to transmit the PHY + MAC header of a data frame (the paper's `H`).
    #[must_use]
    pub fn header_time(&self) -> MicroSecs {
        (self.frames.mac_header + self.phy.phy_header).tx_time(self.phy.bit_rate)
    }

    /// Time to transmit the data payload (the paper's `P`).
    #[must_use]
    pub fn payload_time(&self) -> MicroSecs {
        self.frames.payload.tx_time(self.phy.bit_rate)
    }

    /// Time on air of a control frame body plus its PHY header.
    fn control_time(&self, body: Bits) -> MicroSecs {
        (body + self.phy.phy_header).tx_time(self.phy.bit_rate)
    }

    /// Channel time of a successful TXOP burst delivering `burst` frames:
    /// the ordinary success time `T_s` plus, for every frame after the
    /// first, `SIFS + DATA(H + P) + SIFS + ACK` (the burst continues under
    /// TXOP protection, so no extra contention, DIFS, or RTS/CTS exchange
    /// is paid per frame).
    ///
    /// `burst = 1` returns [`FrameTimings::success_time`] **exactly**
    /// (bitwise — the single-frame case takes the untouched legacy path),
    /// which is what lets the EDCA slot process degenerate to the paper's
    /// model when nobody bursts.
    ///
    /// # Panics
    ///
    /// Panics if `burst` is zero (a transmission opportunity carries at
    /// least one frame; this is a programmer-error guard).
    #[must_use]
    pub fn txop_success_time(&self, burst: u32) -> MicroSecs {
        assert!(burst >= 1, "a TXOP burst carries at least one frame"); // PANIC-POLICY: documented # Panics contract (programmer-error guard)
        let base = self.timings().success_time;
        if burst == 1 {
            return base;
        }
        let per_frame = self.phy.sifs
            + self.header_time()
            + self.payload_time()
            + self.phy.sifs
            + self.control_time(self.frames.ack);
        base + per_frame * f64::from(burst - 1)
    }

    /// Derived busy-channel durations `T_s` (success) and `T_c` (collision)
    /// for the configured access mode, using the paper's Section III/V.F
    /// expressions:
    ///
    /// * basic: `T_s = H + P + SIFS + ACK + DIFS`, `T_c = H + P + SIFS`;
    /// * RTS/CTS: `T_s' = RTS + SIFS + CTS + H + P + SIFS + ACK + DIFS`,
    ///   `T_c' = RTS + DIFS`.
    ///
    /// (The paper's `T_c` omits DIFS in basic mode and one SIFS in the
    /// RTS/CTS success time relative to Bianchi's; we follow the paper
    /// literally — the differences are ≲ 1 % of the frame time.)
    #[must_use]
    pub fn timings(&self) -> FrameTimings {
        let phy = &self.phy;
        let h = self.header_time();
        let p = self.payload_time();
        let ack = self.control_time(self.frames.ack);
        match self.access_mode {
            AccessMode::Basic => FrameTimings {
                success_time: h + p + phy.sifs + ack + phy.difs,
                collision_time: h + p + phy.sifs,
            },
            AccessMode::RtsCts => {
                let rts = self.control_time(self.frames.rts);
                let cts = self.control_time(self.frames.cts);
                FrameTimings {
                    success_time: rts + phy.sifs + cts + h + p + phy.sifs + ack + phy.difs,
                    collision_time: rts + phy.difs,
                }
            }
        }
    }
}

/// Busy-channel durations derived from a [`DcfParams`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FrameTimings {
    /// `T_s`: time the channel is sensed busy by a successful transmission.
    pub success_time: MicroSecs,
    /// `T_c`: time the channel is sensed busy by a collision.
    pub collision_time: MicroSecs,
}

/// Builder for [`DcfParams`] ([C-BUILDER]).
///
/// [C-BUILDER]: https://rust-lang.github.io/api-guidelines/type-safety.html
#[derive(Debug, Clone)]
pub struct DcfParamsBuilder {
    params: DcfParams,
}

impl DcfParamsBuilder {
    /// Starts from the Table I defaults.
    #[must_use]
    pub fn new() -> Self {
        DcfParamsBuilder { params: DcfParams::default() }
    }

    /// Sets the PHY timing parameters.
    pub fn phy(&mut self, phy: PhyParams) -> &mut Self {
        self.params.phy = phy;
        self
    }

    /// Sets the frame sizes.
    pub fn frames(&mut self, frames: FrameParams) -> &mut Self {
        self.params.frames = frames;
        self
    }

    /// Sets the access mechanism.
    pub fn access_mode(&mut self, mode: AccessMode) -> &mut Self {
        self.params.access_mode = mode;
        self
    }

    /// Sets the maximum backoff stage `m`.
    pub fn max_backoff_stage(&mut self, m: u32) -> &mut Self {
        self.params.max_backoff_stage = m;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DcfError::InvalidParameter`] if the maximum backoff stage
    /// exceeds 16 (CW values past `2^16·W` overflow any realistic CW space)
    /// or if the slot duration is zero.
    pub fn build(&self) -> Result<DcfParams, DcfError> {
        if self.params.max_backoff_stage > 16 {
            return Err(DcfError::invalid("max_backoff_stage", "must be at most 16"));
        }
        if self.params.phy.slot.value() <= 0.0 {
            return Err(DcfError::invalid("phy.slot", "slot duration must be positive"));
        }
        Ok(self.params)
    }
}

impl Default for DcfParamsBuilder {
    fn default() -> Self {
        DcfParamsBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_basic_timings() {
        let p = DcfParams::default();
        // H = (272 + 128) bits at 1 Mbit/s = 400 µs; P = 8184 µs; ACK = 240 µs.
        assert_eq!(p.header_time().value(), 400.0);
        assert_eq!(p.payload_time().value(), 8184.0);
        let t = p.timings();
        // Ts = 400 + 8184 + 28 + 240 + 128 = 8980 µs; Tc = 400 + 8184 + 28 = 8612 µs.
        assert_eq!(t.success_time.value(), 8980.0);
        assert_eq!(t.collision_time.value(), 8612.0);
    }

    #[test]
    fn table_one_rtscts_timings() {
        let p = DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap();
        let t = p.timings();
        // RTS = 288, CTS = 240, ACK = 240.
        // Ts' = 288 + 28 + 240 + 400 + 8184 + 28 + 240 + 128 = 9536 µs.
        // Tc' = 288 + 128 = 416 µs.
        assert_eq!(t.success_time.value(), 9536.0);
        assert_eq!(t.collision_time.value(), 416.0);
    }

    #[test]
    fn txop_burst_timing() {
        let p = DcfParams::default();
        let t = p.timings();
        // burst = 1 is bitwise the legacy success time.
        assert_eq!(p.txop_success_time(1), t.success_time);
        // Each extra frame costs SIFS + H + P + SIFS + ACK = 28 + 400 +
        // 8184 + 28 + 240 = 8880 µs.
        assert_eq!(p.txop_success_time(2).value(), t.success_time.value() + 8880.0);
        assert_eq!(p.txop_success_time(4).value(), t.success_time.value() + 3.0 * 8880.0);
        // A burst is cheaper per frame than separate accesses.
        assert!(p.txop_success_time(3).value() < 3.0 * t.success_time.value());
    }

    #[test]
    #[should_panic(expected = "at least one frame")]
    fn txop_zero_burst_panics() {
        let _ = DcfParams::default().txop_success_time(0);
    }

    #[test]
    fn rtscts_collisions_far_cheaper() {
        let basic = DcfParams::default().timings();
        let rtscts =
            DcfParams::builder().access_mode(AccessMode::RtsCts).build().unwrap().timings();
        assert!(rtscts.collision_time.value() < 0.05 * basic.collision_time.value());
    }

    #[test]
    fn builder_rejects_extreme_stage() {
        let err = DcfParams::builder().max_backoff_stage(17).build().unwrap_err();
        assert!(matches!(err, DcfError::InvalidParameter { name: "max_backoff_stage", .. }));
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(DcfParams::builder().build().unwrap(), DcfParams::default());
    }

    #[test]
    fn access_mode_display() {
        assert_eq!(AccessMode::Basic.to_string(), "basic");
        assert_eq!(AccessMode::RtsCts.to_string(), "RTS/CTS");
    }
}
