//! The flex-offer object and its lifecycle state machine.
//!
//! The lifecycle exists twice, deliberately:
//!
//! * **erased** — [`FlexOffer`] (i.e. `FlexOffer<Erased>`) carries its
//!   state as the runtime [`OfferState`] tag and offers checked `&mut`
//!   transitions ([`FlexOffer::accept`], [`FlexOffer::assign`], …) for
//!   storage layers (fact tables, epoch snapshots, the wire) that must
//!   hold offers of mixed states in one collection;
//! * **typed** — `FlexOffer<Offered>`, `FlexOffer<Accepted>`,
//!   `FlexOffer<Scheduled>`, `FlexOffer<Executed>`,
//!   `FlexOffer<Withdrawn>` are zero-cost typestates
//!   ([`std::marker::PhantomData`], no extra bytes, no vtable) whose
//!   transition methods consume `self`, so an *invalid transition does
//!   not compile* — see the [`state`] module for the diagram and the
//!   compile-fail proofs.
//!
//! [`FlexOffer::typed`] moves from the erased world into the typed one
//! (checked at runtime, exactly once); [`FlexOffer::erase`] moves back
//! (free — it only drops the marker).

use std::fmt;
use std::marker::PhantomData;

use mirabel_timeseries::{SlotSpan, TimeSlot};

use crate::energy::Energy;
use crate::error::FlexOfferError;
use crate::ids::{FlexOfferId, ProsumerId};
use crate::profile::{EnergySlice, Profile};
use crate::schedule::{Execution, Schedule};
use crate::types::{ApplianceType, Direction, EnergyType, Money, ProsumerType};

/// Lifecycle state of a flex-offer — the erased, wire-encodable form.
///
/// The dashboard of Figure 6 and the schematic pies of Figure 4 report the
/// accepted/scheduled/rejected breakdown; the aggregate measures of
/// Section 3 ("total number of accepted, assigned, or rejected
/// flex-offers") are counts over this state. The typed mirror of each
/// variant lives in the [`state`] module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OfferState {
    /// Submitted by the prosumer, not yet answered.
    Offered,
    /// Accepted by the enterprise (before the acceptance deadline).
    Accepted,
    /// Declined by the enterprise.
    Rejected,
    /// Scheduled: a start time and energies have been assigned
    /// (the paper's "assigned" state).
    Scheduled,
    /// The schedule's time has passed and actual consumption was metered.
    Executed,
    /// Withdrawn by the prosumer before assignment.
    Withdrawn,
}

impl OfferState {
    /// All states in lifecycle order.
    pub const ALL: [OfferState; 6] = [
        OfferState::Offered,
        OfferState::Accepted,
        OfferState::Rejected,
        OfferState::Scheduled,
        OfferState::Executed,
        OfferState::Withdrawn,
    ];

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            OfferState::Offered => "Offered",
            OfferState::Accepted => "Accepted",
            OfferState::Rejected => "Rejected",
            OfferState::Scheduled => "Scheduled",
            OfferState::Executed => "Executed",
            OfferState::Withdrawn => "Withdrawn",
        }
    }

    /// Stable lower-case wire token, suitable as a single whitespace-free
    /// protocol field. Round-trips through [`OfferState::from_wire_token`].
    pub fn wire_token(self) -> &'static str {
        match self {
            OfferState::Offered => "offered",
            OfferState::Accepted => "accepted",
            OfferState::Rejected => "rejected",
            OfferState::Scheduled => "scheduled",
            OfferState::Executed => "executed",
            OfferState::Withdrawn => "withdrawn",
        }
    }

    /// Decodes a wire token produced by [`OfferState::wire_token`];
    /// anything else is `None` (tokens are exact, case-sensitive).
    pub fn from_wire_token(token: &str) -> Option<OfferState> {
        OfferState::ALL.into_iter().find(|s| s.wire_token() == token)
    }

    /// `true` for [`OfferState::Scheduled`] and beyond.
    pub fn is_scheduled(self) -> bool {
        matches!(self, OfferState::Scheduled | OfferState::Executed)
    }

    /// `true` for states a schedule can no longer be assigned from.
    pub fn is_terminal(self) -> bool {
        matches!(self, OfferState::Rejected | OfferState::Executed | OfferState::Withdrawn)
    }
}

impl fmt::Display for OfferState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Typestate markers for [`FlexOffer`] — the compile-time mirror of
/// [`OfferState`].
///
/// The legal transitions, each a consuming method on the corresponding
/// `FlexOffer<_>`:
///
/// ```text
///            ┌── reject ──────────────▶ Rejected
///            │
/// Offered ───┼── accept ─▶ Accepted ── schedule_with ─▶ Scheduled ── execute ─▶ Executed
///            │                 │                            │
///            └── withdraw ──┐  └── withdraw ──┐             └─ reschedule_with ─┐
///                           ▼                 ▼                 (loops)         │
///                        Withdrawn        Withdrawn         Scheduled ◀─────────┘
/// ```
///
/// Everything else *does not compile*. Scheduling a withdrawn offer:
///
/// ```compile_fail
/// use mirabel_flexoffer::{state, FlexOffer, Schedule};
///
/// fn schedule_withdrawn(fo: FlexOffer<state::Withdrawn>, s: Schedule) {
///     fo.schedule_with(s); // ERROR: no `schedule_with` on a withdrawn offer
/// }
/// ```
///
/// Executing an offer that was never scheduled:
///
/// ```compile_fail
/// use mirabel_flexoffer::{state, Execution, FlexOffer};
///
/// fn execute_unscheduled(fo: FlexOffer<state::Accepted>, e: Execution) {
///     fo.execute(e); // ERROR: only `FlexOffer<Scheduled>` can execute
/// }
/// ```
///
/// Accepting twice (the first `accept` consumed the offer):
///
/// ```compile_fail
/// use mirabel_flexoffer::{state, FlexOffer};
///
/// fn accept_twice(fo: FlexOffer<state::Offered>) {
///     let accepted = fo.accept();
///     fo.accept(); // ERROR: use of moved value `fo`
///     let _ = accepted;
/// }
/// ```
///
/// Withdrawing a schedule-committed offer (assignment is binding):
///
/// ```compile_fail
/// use mirabel_flexoffer::{state, FlexOffer};
///
/// fn withdraw_scheduled(fo: FlexOffer<state::Scheduled>) {
///     fo.withdraw(); // ERROR: no `withdraw` once scheduled
/// }
/// ```
pub mod state {
    use super::OfferState;

    mod sealed {
        pub trait Sealed {}
    }

    /// A marker type usable as the state parameter of
    /// [`FlexOffer`](super::FlexOffer). Sealed: exactly [`Erased`] and
    /// the six typed states implement it.
    pub trait LifecycleState:
        sealed::Sealed + std::fmt::Debug + Clone + Copy + PartialEq + Eq + std::hash::Hash
    {
    }

    /// A marker that pins one concrete [`OfferState`] at compile time
    /// (every state except [`Erased`]).
    pub trait TypedState: LifecycleState {
        /// The runtime tag this marker mirrors.
        const STATE: OfferState;
    }

    macro_rules! markers {
        ($($(#[$doc:meta])* $name:ident => $tag:expr;)*) => {$(
            $(#[$doc])*
            #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
            pub struct $name;
            impl sealed::Sealed for $name {}
            impl LifecycleState for $name {}
            impl TypedState for $name {
                const STATE: OfferState = $tag;
            }
        )*};
    }

    markers! {
        /// Compile-time [`OfferState::Offered`].
        Offered => OfferState::Offered;
        /// Compile-time [`OfferState::Accepted`].
        Accepted => OfferState::Accepted;
        /// Compile-time [`OfferState::Rejected`].
        Rejected => OfferState::Rejected;
        /// Compile-time [`OfferState::Scheduled`].
        Scheduled => OfferState::Scheduled;
        /// Compile-time [`OfferState::Executed`].
        Executed => OfferState::Executed;
        /// Compile-time [`OfferState::Withdrawn`].
        Withdrawn => OfferState::Withdrawn;
    }

    /// The erased (runtime-tagged) state: collections of mixed-state
    /// offers use `FlexOffer<Erased>`, which is what the bare
    /// [`FlexOffer`](super::FlexOffer) alias means.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    pub struct Erased;
    impl sealed::Sealed for Erased {}
    impl LifecycleState for Erased {}
}

use state::{LifecycleState, TypedState};

/// A flex-offer: the energy planning object of Figure 2.
///
/// Use [`FlexOffer::builder`] to construct one; the builder validates the
/// deadline ordering, the flexibility window and the profile. The `S`
/// parameter is the typestate (see [`state`]); it defaults to
/// [`state::Erased`], so `FlexOffer` written without a parameter is the
/// runtime-tagged form every storage layer uses.
#[derive(Debug, Clone, PartialEq)]
pub struct FlexOffer<S: LifecycleState = state::Erased> {
    id: FlexOfferId,
    prosumer: ProsumerId,
    direction: Direction,
    profile: Profile,
    earliest_start: TimeSlot,
    latest_start: TimeSlot,
    creation_time: TimeSlot,
    acceptance_deadline: TimeSlot,
    assignment_deadline: TimeSlot,
    energy_type: EnergyType,
    prosumer_type: ProsumerType,
    appliance_type: ApplianceType,
    price_per_kwh: Money,
    status: OfferState,
    schedule: Option<Schedule>,
    execution: Option<Execution>,
    _state: PhantomData<S>,
}

impl<S: LifecycleState> FlexOffer<S> {
    /// Re-tags the offer with a (possibly different) state parameter,
    /// updating the runtime tag to match. Private: every public path to
    /// this goes through a checked or total transition.
    fn into_state<T: LifecycleState>(self, status: OfferState) -> FlexOffer<T> {
        FlexOffer {
            id: self.id,
            prosumer: self.prosumer,
            direction: self.direction,
            profile: self.profile,
            earliest_start: self.earliest_start,
            latest_start: self.latest_start,
            creation_time: self.creation_time,
            acceptance_deadline: self.acceptance_deadline,
            assignment_deadline: self.assignment_deadline,
            energy_type: self.energy_type,
            prosumer_type: self.prosumer_type,
            appliance_type: self.appliance_type,
            price_per_kwh: self.price_per_kwh,
            status,
            schedule: self.schedule,
            execution: self.execution,
            _state: PhantomData,
        }
    }

    /// A copy of this offer re-identified as `id`, every other field
    /// unchanged — the live-feed helper for re-stamping generated
    /// offers into an id space disjoint from an already-loaded set.
    #[must_use]
    pub fn with_id(&self, id: FlexOfferId) -> FlexOffer<S> {
        FlexOffer { id, ..self.clone() }
    }

    /// Unique id of this offer.
    #[inline]
    pub fn id(&self) -> FlexOfferId {
        self.id
    }

    /// The issuing prosumer ("legal entity" in Figure 7).
    #[inline]
    pub fn prosumer(&self) -> ProsumerId {
        self.prosumer
    }

    /// Consumption or production.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The energy profile.
    #[inline]
    pub fn profile(&self) -> &Profile {
        &self.profile
    }

    /// Earliest slot at which the appliance may start.
    #[inline]
    pub fn earliest_start(&self) -> TimeSlot {
        self.earliest_start
    }

    /// Latest slot at which the appliance may start.
    #[inline]
    pub fn latest_start(&self) -> TimeSlot {
        self.latest_start
    }

    /// Latest slot by which the profile is certainly finished
    /// (`latest_start + profile duration`; "5am, latest end time" in
    /// Figure 2).
    #[inline]
    pub fn latest_end(&self) -> TimeSlot {
        self.latest_start + self.profile.duration()
    }

    /// When the prosumer created the offer.
    #[inline]
    pub fn creation_time(&self) -> TimeSlot {
        self.creation_time
    }

    /// Latest moment for the enterprise to send the acceptance message.
    #[inline]
    pub fn acceptance_deadline(&self) -> TimeSlot {
        self.acceptance_deadline
    }

    /// Latest moment for the enterprise to send the assignment message.
    #[inline]
    pub fn assignment_deadline(&self) -> TimeSlot {
        self.assignment_deadline
    }

    /// Energy type attribute (dimension member for the DW).
    #[inline]
    pub fn energy_type(&self) -> EnergyType {
        self.energy_type
    }

    /// Prosumer type attribute (dimension member for the DW).
    #[inline]
    pub fn prosumer_type(&self) -> ProsumerType {
        self.prosumer_type
    }

    /// Appliance type attribute (dimension member for the DW).
    #[inline]
    pub fn appliance_type(&self) -> ApplianceType {
        self.appliance_type
    }

    /// Offered price per kWh.
    #[inline]
    pub fn price_per_kwh(&self) -> Money {
        self.price_per_kwh
    }

    /// Current lifecycle state (the erased runtime tag; for a typed
    /// offer this always equals `S::STATE`).
    #[inline]
    pub fn status(&self) -> OfferState {
        self.status
    }

    /// The assigned schedule, if any.
    #[inline]
    pub fn schedule(&self) -> Option<&Schedule> {
        self.schedule.as_ref()
    }

    /// The recorded execution, if any.
    #[inline]
    pub fn execution(&self) -> Option<&Execution> {
        self.execution.as_ref()
    }

    // ------------------------------------------------------------------
    // Flexibility measures (Figure 2 / Section 3 elements).
    // ------------------------------------------------------------------

    /// Start-time flexibility: `latest_start − earliest_start`.
    #[inline]
    pub fn time_flexibility(&self) -> SlotSpan {
        self.latest_start - self.earliest_start
    }

    /// Total energy flexibility: `Σ (max − min)` over the profile.
    #[inline]
    pub fn energy_flexibility(&self) -> Energy {
        self.profile.energy_flexibility()
    }

    /// Least total energy the offer will use.
    #[inline]
    pub fn total_min_energy(&self) -> Energy {
        self.profile.total_min()
    }

    /// Most total energy the offer can use.
    #[inline]
    pub fn total_max_energy(&self) -> Energy {
        self.profile.total_max()
    }

    /// The **energy balancing potential** measure of Section 3: "computed
    /// from the total amount of energy and the flexibility prosumers offer".
    ///
    /// We define it as
    /// `energy_flexibility + total_max · tf / (tf + duration)`
    /// where `tf` is the time flexibility and `duration` the profile
    /// length, both in slots: the first term is energy that can be *scaled*
    /// away, the second is energy that can be *shifted* (weighted by how
    /// far it can move relative to its own length). The value is measured
    /// in watt-hours and is zero only for an offer with no flexibility at
    /// all.
    pub fn balancing_potential(&self) -> Energy {
        let tf = self.time_flexibility().count();
        let dur = self.profile.len() as i64;
        let shiftable_wh = if tf == 0 {
            0
        } else {
            // Integer arithmetic: max · tf / (tf + dur), rounded down.
            self.total_max_energy().wh() * tf / (tf + dur)
        };
        self.energy_flexibility() + Energy::from_wh(shiftable_wh)
    }

    /// The half-open absolute slot interval this offer can possibly touch:
    /// `[earliest_start, latest_end)`.
    pub fn extent(&self) -> (TimeSlot, TimeSlot) {
        (self.earliest_start, self.latest_end())
    }

    /// `true` when the flexibility windows of `self` and `other` overlap
    /// in absolute time.
    pub fn overlaps<T: LifecycleState>(&self, other: &FlexOffer<T>) -> bool {
        let (a0, a1) = self.extent();
        let (b0, b1) = other.extent();
        a0 < b1 && b0 < a1
    }

    /// Checks whether `schedule` is feasible for this offer: start within
    /// the flexibility window, one energy per slice, every amount within
    /// the slice bounds.
    pub fn check_schedule(&self, schedule: &Schedule) -> Result<(), FlexOfferError> {
        if schedule.start() < self.earliest_start || schedule.start() > self.latest_start {
            return Err(FlexOfferError::InfeasibleSchedule {
                id: self.id,
                reason: format!(
                    "start {} outside flexibility window [{}, {}]",
                    schedule.start(),
                    self.earliest_start,
                    self.latest_start
                ),
            });
        }
        if schedule.len() != self.profile.len() {
            return Err(FlexOfferError::InfeasibleSchedule {
                id: self.id,
                reason: format!(
                    "schedule has {} slices, profile has {}",
                    schedule.len(),
                    self.profile.len()
                ),
            });
        }
        for (i, (&energy, &slice)) in
            schedule.energies().iter().zip(self.profile.slices()).enumerate()
        {
            if !slice.contains(energy) {
                return Err(FlexOfferError::InfeasibleSchedule {
                    id: self.id,
                    reason: format!("slice {i}: energy {energy} outside bound {slice}"),
                });
            }
        }
        Ok(())
    }

    fn check_execution(&self, execution: &Execution) -> Result<(), FlexOfferError> {
        let schedule = self.schedule.as_ref().expect("scheduled offers have schedules");
        if execution.len() != schedule.len() {
            return Err(FlexOfferError::InvalidExecution {
                id: self.id,
                reason: format!(
                    "execution has {} slices, schedule has {}",
                    execution.len(),
                    schedule.len()
                ),
            });
        }
        Ok(())
    }
}

// ----------------------------------------------------------------------
// Erased API: construction, checked `&mut` transitions, typing.
// ----------------------------------------------------------------------

impl FlexOffer {
    /// Starts building a flex-offer with the given offer and prosumer ids.
    pub fn builder(
        id: impl Into<FlexOfferId>,
        prosumer: impl Into<ProsumerId>,
    ) -> FlexOfferBuilder {
        FlexOfferBuilder::new(id.into(), prosumer.into())
    }

    /// Moves into the typed world: `Ok(FlexOffer<T>)` when the runtime
    /// tag matches `T::STATE`, otherwise hands the offer back unchanged.
    ///
    /// ```
    /// use mirabel_flexoffer::{state, Energy, FlexOffer};
    /// let fo = FlexOffer::builder(1u64, 2u64)
    ///     .slice(Energy::from_wh(1), Energy::from_wh(2))
    ///     .build()
    ///     .unwrap();
    /// let typed: FlexOffer<state::Offered> = fo.typed().unwrap();
    /// let accepted = typed.accept(); // consuming, cannot accept twice
    /// assert_eq!(accepted.erase().status(), mirabel_flexoffer::OfferState::Accepted);
    /// ```
    #[allow(clippy::result_large_err)] // the Err deliberately returns the offer
    pub fn typed<T: TypedState>(self) -> Result<FlexOffer<T>, FlexOffer> {
        if self.status == T::STATE {
            let status = self.status;
            Ok(self.into_state(status))
        } else {
            Err(self)
        }
    }

    /// Offered → Accepted.
    pub fn accept(&mut self) -> Result<(), FlexOfferError> {
        match self.status {
            OfferState::Offered => {
                self.status = OfferState::Accepted;
                Ok(())
            }
            _ => Err(self.bad_transition("accept")),
        }
    }

    /// Offered → Rejected.
    pub fn reject(&mut self) -> Result<(), FlexOfferError> {
        match self.status {
            OfferState::Offered => {
                self.status = OfferState::Rejected;
                Ok(())
            }
            _ => Err(self.bad_transition("reject")),
        }
    }

    /// Offered | Accepted → Withdrawn: the prosumer pulls the offer back
    /// before it is schedule-committed. Assignment is binding, so a
    /// scheduled offer can no longer be withdrawn.
    pub fn withdraw(&mut self) -> Result<(), FlexOfferError> {
        match self.status {
            OfferState::Offered | OfferState::Accepted => {
                self.status = OfferState::Withdrawn;
                Ok(())
            }
            _ => Err(self.bad_transition("withdraw")),
        }
    }

    /// Accepted → Scheduled with a feasibility-checked schedule. An
    /// already scheduled offer may be re-assigned (re-planning before
    /// execution).
    pub fn assign(&mut self, schedule: Schedule) -> Result<(), FlexOfferError> {
        match self.status {
            OfferState::Accepted | OfferState::Scheduled => {
                self.check_schedule(&schedule)?;
                self.schedule = Some(schedule);
                self.status = OfferState::Scheduled;
                Ok(())
            }
            _ => Err(self.bad_transition("assign")),
        }
    }

    /// Scheduled → Executed with the metered actual energies. The actuals
    /// may deviate from the schedule (that is the plan-deviation measure)
    /// but must cover the same number of slices.
    pub fn record_execution(&mut self, execution: Execution) -> Result<(), FlexOfferError> {
        match self.status {
            OfferState::Scheduled => {
                self.check_execution(&execution)?;
                self.execution = Some(execution);
                self.status = OfferState::Executed;
                Ok(())
            }
            _ => Err(self.bad_transition("record execution for")),
        }
    }

    fn bad_transition(&self, attempted: &'static str) -> FlexOfferError {
        FlexOfferError::InvalidTransition { id: self.id, from: self.status.name(), attempted }
    }
}

// ----------------------------------------------------------------------
// Typed API: transitions consume `self`; illegal ones do not exist.
// ----------------------------------------------------------------------

impl<S: TypedState> FlexOffer<S> {
    /// Drops the compile-time state, keeping the runtime tag — free, and
    /// the way typed offers re-enter mixed-state collections.
    pub fn erase(self) -> FlexOffer {
        let status = self.status;
        self.into_state(status)
    }
}

/// A schedule the offer could not adopt: the offer comes back unchanged
/// (in its original typestate) together with the reason, so a planner
/// can retry with a different schedule without cloning up front.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleRejected<S: TypedState> {
    /// The offer, unchanged.
    pub offer: FlexOffer<S>,
    /// Why the schedule was infeasible.
    pub error: FlexOfferError,
}

/// An execution record the scheduled offer could not adopt (wrong slice
/// count); the offer comes back unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionRejected {
    /// The offer, still scheduled.
    pub offer: FlexOffer<state::Scheduled>,
    /// Why the execution record was invalid.
    pub error: FlexOfferError,
}

impl FlexOffer<state::Offered> {
    /// Offered → Accepted.
    pub fn accept(self) -> FlexOffer<state::Accepted> {
        self.into_state(OfferState::Accepted)
    }

    /// Offered → Rejected.
    pub fn reject(self) -> FlexOffer<state::Rejected> {
        self.into_state(OfferState::Rejected)
    }

    /// Offered → Withdrawn.
    pub fn withdraw(self) -> FlexOffer<state::Withdrawn> {
        self.into_state(OfferState::Withdrawn)
    }
}

impl FlexOffer<state::Accepted> {
    /// Accepted → Scheduled with a feasibility-checked schedule; an
    /// infeasible schedule hands the accepted offer back.
    #[allow(clippy::result_large_err)] // the Err deliberately returns the offer
    pub fn schedule_with(
        mut self,
        schedule: Schedule,
    ) -> Result<FlexOffer<state::Scheduled>, ScheduleRejected<state::Accepted>> {
        if let Err(error) = self.check_schedule(&schedule) {
            return Err(ScheduleRejected { offer: self, error });
        }
        self.schedule = Some(schedule);
        Ok(self.into_state(OfferState::Scheduled))
    }

    /// Accepted → Withdrawn.
    pub fn withdraw(self) -> FlexOffer<state::Withdrawn> {
        self.into_state(OfferState::Withdrawn)
    }
}

impl FlexOffer<state::Scheduled> {
    /// Scheduled → Scheduled with a replacement schedule (re-planning
    /// before execution); an infeasible one hands the offer back with
    /// its standing schedule intact.
    #[allow(clippy::result_large_err)] // the Err deliberately returns the offer
    pub fn reschedule_with(
        mut self,
        schedule: Schedule,
    ) -> Result<FlexOffer<state::Scheduled>, ScheduleRejected<state::Scheduled>> {
        if let Err(error) = self.check_schedule(&schedule) {
            return Err(ScheduleRejected { offer: self, error });
        }
        self.schedule = Some(schedule);
        Ok(self)
    }

    /// Scheduled → Executed with the metered actual energies.
    #[allow(clippy::result_large_err)] // the Err deliberately returns the offer
    pub fn execute(
        mut self,
        execution: Execution,
    ) -> Result<FlexOffer<state::Executed>, ExecutionRejected> {
        if let Err(error) = self.check_execution(&execution) {
            return Err(ExecutionRejected { offer: self, error });
        }
        self.execution = Some(execution);
        Ok(self.into_state(OfferState::Executed))
    }
}

impl<S: LifecycleState> fmt::Display for FlexOffer<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {} {} start∈[{}, {}] {}",
            self.id,
            self.status,
            self.direction,
            self.profile,
            self.earliest_start,
            self.latest_start,
            self.appliance_type,
        )
    }
}

/// Builder for [`FlexOffer`], validating all invariants in
/// [`FlexOfferBuilder::build`].
#[derive(Debug, Clone)]
pub struct FlexOfferBuilder {
    id: FlexOfferId,
    prosumer: ProsumerId,
    direction: Direction,
    slices: Vec<EnergySlice>,
    earliest_start: TimeSlot,
    latest_start: Option<TimeSlot>,
    creation_time: Option<TimeSlot>,
    acceptance_deadline: Option<TimeSlot>,
    assignment_deadline: Option<TimeSlot>,
    energy_type: EnergyType,
    prosumer_type: ProsumerType,
    appliance_type: ApplianceType,
    price_per_kwh: Money,
}

impl FlexOfferBuilder {
    fn new(id: FlexOfferId, prosumer: ProsumerId) -> Self {
        FlexOfferBuilder {
            id,
            prosumer,
            direction: Direction::Consumption,
            slices: Vec::new(),
            earliest_start: TimeSlot::EPOCH,
            latest_start: None,
            creation_time: None,
            acceptance_deadline: None,
            assignment_deadline: None,
            energy_type: EnergyType::Mixed,
            prosumer_type: ProsumerType::Household,
            appliance_type: ApplianceType::Other,
            price_per_kwh: Money::ZERO,
        }
    }

    /// Sets the direction (default: consumption).
    pub fn direction(mut self, d: Direction) -> Self {
        self.direction = d;
        self
    }

    /// Appends one profile slice with the given bounds.
    pub fn slice(mut self, min: Energy, max: Energy) -> Self {
        self.slices.push(EnergySlice { min, max });
        self
    }

    /// Appends `n` identical slices.
    pub fn slices(mut self, n: usize, min: Energy, max: Energy) -> Self {
        self.slices.extend(std::iter::repeat_n(EnergySlice { min, max }, n));
        self
    }

    /// Replaces the profile with an explicit slice list.
    pub fn profile_slices(mut self, slices: Vec<EnergySlice>) -> Self {
        self.slices = slices;
        self
    }

    /// Sets the earliest start slot (default: the epoch).
    pub fn earliest_start(mut self, t: TimeSlot) -> Self {
        self.earliest_start = t;
        self
    }

    /// Sets the latest start slot (default: equal to earliest start, i.e.
    /// no time flexibility).
    pub fn latest_start(mut self, t: TimeSlot) -> Self {
        self.latest_start = Some(t);
        self
    }

    /// Sets the creation time (default: 4 hours before earliest start).
    pub fn creation_time(mut self, t: TimeSlot) -> Self {
        self.creation_time = Some(t);
        self
    }

    /// Sets the acceptance deadline (default: 2 hours before earliest
    /// start).
    pub fn acceptance_deadline(mut self, t: TimeSlot) -> Self {
        self.acceptance_deadline = Some(t);
        self
    }

    /// Sets the assignment deadline (default: 1 hour before earliest
    /// start).
    pub fn assignment_deadline(mut self, t: TimeSlot) -> Self {
        self.assignment_deadline = Some(t);
        self
    }

    /// Sets the energy type attribute.
    pub fn energy_type(mut self, t: EnergyType) -> Self {
        self.energy_type = t;
        self
    }

    /// Sets the prosumer type attribute.
    pub fn prosumer_type(mut self, t: ProsumerType) -> Self {
        self.prosumer_type = t;
        self
    }

    /// Sets the appliance type attribute.
    pub fn appliance_type(mut self, t: ApplianceType) -> Self {
        self.appliance_type = t;
        self
    }

    /// Sets the offered price per kWh.
    pub fn price_per_kwh(mut self, p: Money) -> Self {
        self.price_per_kwh = p;
        self
    }

    /// Validates all invariants and produces the offer in
    /// [`OfferState::Offered`] state (erased form).
    ///
    /// Invariants enforced (Figure 2 ordering):
    /// * non-empty profile, `0 ≤ min ≤ max` per slice;
    /// * `earliest_start ≤ latest_start`;
    /// * `creation ≤ acceptance deadline ≤ assignment deadline ≤ earliest
    ///   start`.
    pub fn build(self) -> Result<FlexOffer, FlexOfferError> {
        let profile = Profile::new(self.slices)?;
        let earliest = self.earliest_start;
        let latest = self.latest_start.unwrap_or(earliest);
        if latest < earliest {
            return Err(FlexOfferError::NegativeTimeFlexibility);
        }
        let creation = self.creation_time.unwrap_or(earliest - SlotSpan::hours(4));
        let acceptance = self.acceptance_deadline.unwrap_or(earliest - SlotSpan::hours(2));
        let assignment = self.assignment_deadline.unwrap_or(earliest - SlotSpan::hours(1));
        if creation > acceptance {
            return Err(FlexOfferError::DeadlineOrder {
                detail: format!("creation {creation} after acceptance deadline {acceptance}"),
            });
        }
        if acceptance > assignment {
            return Err(FlexOfferError::DeadlineOrder {
                detail: format!(
                    "acceptance deadline {acceptance} after assignment deadline {assignment}"
                ),
            });
        }
        if assignment > earliest {
            return Err(FlexOfferError::DeadlineOrder {
                detail: format!("assignment deadline {assignment} after earliest start {earliest}"),
            });
        }
        Ok(FlexOffer {
            id: self.id,
            prosumer: self.prosumer,
            direction: self.direction,
            profile,
            earliest_start: earliest,
            latest_start: latest,
            creation_time: creation,
            acceptance_deadline: acceptance,
            assignment_deadline: assignment,
            energy_type: self.energy_type,
            prosumer_type: self.prosumer_type,
            appliance_type: self.appliance_type,
            price_per_kwh: self.price_per_kwh,
            status: OfferState::Offered,
            schedule: None,
            execution: None,
            _state: PhantomData,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wh(v: i64) -> Energy {
        Energy::from_wh(v)
    }

    /// The canonical Figure 2 offer: earliest start 1 am, latest start
    /// 3 am, 2 h profile, acceptance 11 pm, assignment midnight.
    fn figure2_offer() -> FlexOffer {
        let midnight = TimeSlot::new(SlotSpan::days(30).count()); // some midnight
        FlexOffer::builder(1u64, 10u64)
            .creation_time(midnight - SlotSpan::hours(2))
            .acceptance_deadline(midnight - SlotSpan::hours(1))
            .assignment_deadline(midnight)
            .earliest_start(midnight + SlotSpan::hours(1))
            .latest_start(midnight + SlotSpan::hours(3))
            .slices(8, wh(250), wh(1_000))
            .appliance_type(ApplianceType::ElectricVehicle)
            .build()
            .unwrap()
    }

    #[test]
    fn figure2_elements() {
        let fo = figure2_offer();
        assert_eq!(fo.time_flexibility(), SlotSpan::hours(2));
        assert_eq!(fo.profile().duration(), SlotSpan::hours(2));
        // Latest end = latest start (3 am) + 2 h = 5 am, as in Figure 2.
        assert_eq!(fo.latest_end() - fo.earliest_start(), SlotSpan::hours(4));
        assert_eq!(fo.energy_flexibility(), wh(8 * 750));
        assert_eq!(fo.total_min_energy(), wh(2_000));
        assert_eq!(fo.total_max_energy(), wh(8_000));
        assert_eq!(fo.status(), OfferState::Offered);
        assert!(fo.schedule().is_none());
        assert!(fo.execution().is_none());
    }

    #[test]
    fn builder_rejects_bad_windows() {
        let t = TimeSlot::new(100);
        let err = FlexOffer::builder(1u64, 1u64)
            .earliest_start(t)
            .latest_start(t - SlotSpan::hours(1))
            .slice(wh(1), wh(2))
            .build()
            .unwrap_err();
        assert_eq!(err, FlexOfferError::NegativeTimeFlexibility);
    }

    #[test]
    fn builder_rejects_bad_deadlines() {
        let t = TimeSlot::new(100);
        // Assignment after earliest start.
        let err = FlexOffer::builder(1u64, 1u64)
            .earliest_start(t)
            .assignment_deadline(t + SlotSpan::hours(1))
            .slice(wh(1), wh(2))
            .build()
            .unwrap_err();
        assert!(matches!(err, FlexOfferError::DeadlineOrder { .. }));
        // Creation after acceptance.
        let err = FlexOffer::builder(1u64, 1u64)
            .earliest_start(t)
            .creation_time(t - SlotSpan::hours(1))
            .acceptance_deadline(t - SlotSpan::hours(3))
            .build_with_slice()
            .unwrap_err();
        assert!(matches!(err, FlexOfferError::DeadlineOrder { .. }));
        // Acceptance after assignment.
        let err = FlexOffer::builder(1u64, 1u64)
            .earliest_start(t)
            .acceptance_deadline(t - SlotSpan::hours(1))
            .assignment_deadline(t - SlotSpan::hours(2))
            .build_with_slice()
            .unwrap_err();
        assert!(matches!(err, FlexOfferError::DeadlineOrder { .. }));
    }

    impl FlexOfferBuilder {
        fn build_with_slice(self) -> Result<FlexOffer, FlexOfferError> {
            self.slice(Energy::from_wh(1), Energy::from_wh(2)).build()
        }
    }

    #[test]
    fn builder_rejects_empty_profile() {
        let err = FlexOffer::builder(1u64, 1u64).build().unwrap_err();
        assert_eq!(err, FlexOfferError::EmptyProfile);
    }

    #[test]
    fn lifecycle_happy_path() {
        let mut fo = figure2_offer();
        fo.accept().unwrap();
        assert_eq!(fo.status(), OfferState::Accepted);
        let sched = Schedule::new(fo.earliest_start() + SlotSpan::hours(1), vec![wh(500); 8]);
        fo.assign(sched.clone()).unwrap();
        assert_eq!(fo.status(), OfferState::Scheduled);
        assert!(fo.status().is_scheduled());
        assert_eq!(fo.schedule(), Some(&sched));
        fo.record_execution(Execution::compliant(&sched)).unwrap();
        assert_eq!(fo.status(), OfferState::Executed);
        assert_eq!(fo.execution().unwrap().total(), wh(4_000));
    }

    #[test]
    fn typed_lifecycle_happy_path() {
        let fo: FlexOffer<state::Offered> = figure2_offer().typed().unwrap();
        let accepted = fo.accept();
        let sched = Schedule::new(accepted.earliest_start(), vec![wh(500); 8]);
        let scheduled = accepted.schedule_with(sched.clone()).unwrap();
        assert_eq!(scheduled.status(), OfferState::Scheduled);
        let rescheduled =
            scheduled.reschedule_with(Schedule::new(sched.start(), vec![wh(750); 8])).unwrap();
        let executed = rescheduled.execute(Execution::new(vec![wh(700); 8])).unwrap();
        assert_eq!(executed.status(), OfferState::Executed);
        let erased = executed.erase();
        assert_eq!(erased.execution().unwrap().total(), wh(8 * 700));
        // The runtime tag always mirrors the typestate.
        assert!(erased.typed::<state::Executed>().is_ok());
    }

    #[test]
    fn typed_rejections_hand_the_offer_back() {
        let fo: FlexOffer<state::Offered> = figure2_offer().typed().unwrap();
        let accepted = fo.accept();
        let bad = Schedule::new(accepted.earliest_start() - SlotSpan::slots(1), vec![wh(500); 8]);
        let ScheduleRejected { offer, error } = accepted.schedule_with(bad).unwrap_err();
        assert!(matches!(error, FlexOfferError::InfeasibleSchedule { .. }));
        assert_eq!(offer.status(), OfferState::Accepted);

        let good = Schedule::new(offer.earliest_start(), vec![wh(500); 8]);
        let scheduled = offer.schedule_with(good).unwrap();
        let ExecutionRejected { offer, error } =
            scheduled.execute(Execution::new(vec![wh(500); 7])).unwrap_err();
        assert!(matches!(error, FlexOfferError::InvalidExecution { .. }));
        assert_eq!(offer.status(), OfferState::Scheduled);
        assert!(offer.schedule().is_some(), "standing schedule survives a bad execution");
    }

    #[test]
    fn typed_withdrawals() {
        let fo: FlexOffer<state::Offered> = figure2_offer().typed().unwrap();
        let withdrawn = fo.withdraw();
        assert_eq!(withdrawn.status(), OfferState::Withdrawn);
        let fo2: FlexOffer<state::Offered> = figure2_offer().typed().unwrap();
        let withdrawn2 = fo2.accept().withdraw();
        assert_eq!(withdrawn2.erase().status(), OfferState::Withdrawn);
    }

    #[test]
    fn typed_conversion_checks_the_tag() {
        let mut fo = figure2_offer();
        fo.accept().unwrap();
        let back: FlexOffer = fo.typed::<state::Offered>().unwrap_err();
        assert_eq!(back.status(), OfferState::Accepted);
        assert!(back.typed::<state::Accepted>().is_ok());
    }

    #[test]
    fn erased_withdraw_rules() {
        let mut fo = figure2_offer();
        fo.withdraw().unwrap();
        assert_eq!(fo.status(), OfferState::Withdrawn);
        assert!(fo.accept().is_err());
        assert!(fo.withdraw().is_err(), "cannot withdraw twice");

        let mut fo = figure2_offer();
        fo.accept().unwrap();
        fo.withdraw().unwrap();
        assert_eq!(fo.status(), OfferState::Withdrawn);

        let mut fo = figure2_offer();
        fo.accept().unwrap();
        fo.assign(Schedule::new(fo.earliest_start(), vec![wh(500); 8])).unwrap();
        assert!(fo.withdraw().is_err(), "assignment is binding");
    }

    #[test]
    fn reassignment_allowed_before_execution() {
        let mut fo = figure2_offer();
        fo.accept().unwrap();
        let s1 = Schedule::new(fo.earliest_start(), vec![wh(250); 8]);
        let s2 = Schedule::new(fo.latest_start(), vec![wh(1_000); 8]);
        fo.assign(s1).unwrap();
        fo.assign(s2.clone()).unwrap();
        assert_eq!(fo.schedule(), Some(&s2));
    }

    #[test]
    fn invalid_transitions_are_rejected() {
        let mut fo = figure2_offer();
        fo.reject().unwrap();
        assert_eq!(fo.status(), OfferState::Rejected);
        assert!(fo.accept().is_err());
        let sched = Schedule::new(fo.earliest_start(), vec![wh(500); 8]);
        assert!(fo.assign(sched.clone()).is_err());
        assert!(fo.record_execution(Execution::new(vec![wh(0); 8])).is_err());
        assert!(fo.withdraw().is_err(), "rejection is final");

        let mut fo2 = figure2_offer();
        // Cannot assign before accepting.
        assert!(fo2.assign(sched).is_err());
        // Cannot reject twice.
        fo2.reject().unwrap();
        assert!(fo2.reject().is_err());
    }

    #[test]
    fn schedule_feasibility_checks() {
        let fo = figure2_offer();
        // Start before the window.
        let early = Schedule::new(fo.earliest_start() - SlotSpan::slots(1), vec![wh(500); 8]);
        assert!(fo.check_schedule(&early).is_err());
        // Start after the window.
        let late = Schedule::new(fo.latest_start() + SlotSpan::slots(1), vec![wh(500); 8]);
        assert!(fo.check_schedule(&late).is_err());
        // Wrong slice count.
        let short = Schedule::new(fo.earliest_start(), vec![wh(500); 7]);
        assert!(fo.check_schedule(&short).is_err());
        // Energy outside bounds.
        let over = Schedule::new(fo.earliest_start(), vec![wh(1_001); 8]);
        assert!(fo.check_schedule(&over).is_err());
        let under = Schedule::new(fo.earliest_start(), vec![wh(249); 8]);
        assert!(fo.check_schedule(&under).is_err());
        // Boundary values are feasible.
        let at_min = Schedule::new(fo.earliest_start(), vec![wh(250); 8]);
        assert!(fo.check_schedule(&at_min).is_ok());
        let at_max = Schedule::new(fo.latest_start(), vec![wh(1_000); 8]);
        assert!(fo.check_schedule(&at_max).is_ok());
    }

    #[test]
    fn execution_length_must_match() {
        let mut fo = figure2_offer();
        fo.accept().unwrap();
        fo.assign(Schedule::new(fo.earliest_start(), vec![wh(500); 8])).unwrap();
        let err = fo.record_execution(Execution::new(vec![wh(500); 7])).unwrap_err();
        assert!(matches!(err, FlexOfferError::InvalidExecution { .. }));
    }

    #[test]
    fn balancing_potential_definition() {
        let fo = figure2_offer();
        // tf = 8 slots, duration = 8 slots → shiftable = max · 8/16.
        let expected = fo.energy_flexibility() + Energy::from_wh(8_000 * 8 / 16);
        assert_eq!(fo.balancing_potential(), expected);

        // An offer without any flexibility has zero potential.
        let t = TimeSlot::new(50);
        let rigid = FlexOffer::builder(2u64, 1u64)
            .earliest_start(t)
            .slice(wh(100), wh(100))
            .build()
            .unwrap();
        assert_eq!(rigid.balancing_potential(), Energy::ZERO);
    }

    #[test]
    fn overlap_detection() {
        let t = TimeSlot::new(1_000);
        let mk = |shift: i64| {
            FlexOffer::builder(1u64, 1u64)
                .earliest_start(t + SlotSpan::slots(shift))
                .latest_start(t + SlotSpan::slots(shift + 4))
                .slices(4, wh(1), wh(2))
                .build()
                .unwrap()
        };
        let a = mk(0); // extent [0, 8)
        let b = mk(4); // extent [4, 12)
        let c = mk(8); // extent [8, 16)
        assert!(a.overlaps(&b));
        assert!(b.overlaps(&a));
        assert!(!a.overlaps(&c));
        assert!(b.overlaps(&c));
    }

    #[test]
    fn display_mentions_key_facts() {
        let fo = figure2_offer();
        let s = fo.to_string();
        assert!(s.contains("fo-1"));
        assert!(s.contains("Offered"));
        assert!(s.contains("Electric vehicle"));
    }

    #[test]
    fn state_names() {
        assert_eq!(OfferState::ALL.len(), 6);
        assert_eq!(OfferState::Accepted.to_string(), "Accepted");
        assert_eq!(OfferState::Scheduled.to_string(), "Scheduled");
        assert_eq!(OfferState::Withdrawn.to_string(), "Withdrawn");
        assert!(!OfferState::Offered.is_scheduled());
        assert!(OfferState::Scheduled.is_scheduled());
        assert!(OfferState::Executed.is_scheduled());
        assert!(OfferState::Withdrawn.is_terminal());
        assert!(!OfferState::Accepted.is_terminal());
    }

    /// Satellite: the erased state round-trips through the wire codec —
    /// exhaustive over [`OfferState::ALL`] plus a seeded fuzz of
    /// near-miss tokens that must all decode to `None`.
    #[test]
    fn wire_tokens_round_trip() {
        for s in OfferState::ALL {
            assert_eq!(OfferState::from_wire_token(s.wire_token()), Some(s), "{s}");
            assert!(s.wire_token().chars().all(|c| c.is_ascii_lowercase()), "{s}");
        }
        // Deterministic splitmix64 fuzz: mutate valid tokens one byte at
        // a time and by case; none of the mutants may decode.
        let mut x: u64 = 0x5EED_0FFE_12E5_7A7E;
        let mut next = move || {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for _ in 0..2_000 {
            let s = OfferState::ALL[(next() % 6) as usize];
            let mut tok: Vec<u8> = s.wire_token().bytes().collect();
            let i = (next() as usize) % tok.len();
            match next() % 3 {
                0 => tok[i] = tok[i].to_ascii_uppercase(),
                1 => tok[i] = b'a' + ((next() % 26) as u8),
                _ => {
                    tok.remove(i);
                }
            }
            let tok = String::from_utf8(tok).unwrap();
            if tok != s.wire_token() {
                assert_eq!(
                    OfferState::from_wire_token(&tok),
                    None,
                    "mutant {tok:?} must not decode"
                );
            }
        }
    }
}
