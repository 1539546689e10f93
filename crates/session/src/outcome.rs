//! Structured results of applying a [`crate::Command`].

use mirabel_dw::{MemberId, PivotTable};
use mirabel_flexoffer::FlexOfferId;

use crate::tab::FrameRef;
use crate::views::tooltip::TooltipInfo;

/// What a selection-changing command did.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectionDelta {
    /// The tab whose selection changed.
    pub tab: usize,
    /// Ids newly added to the selection.
    pub added: Vec<FlexOfferId>,
    /// Ids removed (cleared or deleted from the view).
    pub removed: Vec<FlexOfferId>,
    /// Selection size after the command.
    pub total: usize,
}

/// Aggregation statistics (the numbers the Figure 11 panel shows).
#[derive(Debug, Clone, PartialEq)]
pub struct AggregationStats {
    /// Objects before aggregation.
    pub input_count: usize,
    /// Objects after aggregation.
    pub output_count: usize,
    /// `input / output` (≥ 1).
    pub reduction_factor: f64,
    /// Total time flexibility lost (slot·offers).
    pub flexibility_loss_slots: i64,
}

/// What a [`Command::Plan`](crate::Command::Plan) did — the numbers the
/// balance panel reports next to the Figure 1 curves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanStats {
    /// Monotone plan generation (the balance tab's cache key third).
    pub generation: u64,
    /// Warehouse epoch the plan was made against.
    pub epoch: u64,
    /// First slot of the planned window.
    pub window_start: mirabel_timeseries::TimeSlot,
    /// Partitions re-planned by this command (0 = nothing was dirty).
    pub replanned: usize,
    /// Total partitions in the plan.
    pub partitions: usize,
    /// Offers holding a schedule after the command.
    pub assigned: usize,
    /// Offers skipped (not in a schedulable state).
    pub skipped: usize,
    /// L1 imbalance of the zero plan against the target (kWh).
    pub before_l1: f64,
    /// L1 imbalance of the plan against the target (kWh).
    pub after_l1: f64,
}

impl PlanStats {
    /// Fraction of partitions re-planned, in `0..=1` — the incremental
    /// win in one number (an ingest of one offer at 32 partitions
    /// reports 1/32).
    pub fn replanned_fraction(&self) -> f64 {
        if self.partitions == 0 {
            0.0
        } else {
            self.replanned as f64 / self.partitions as f64
        }
    }
}

/// The structured response to one [`crate::Command`].
///
/// Every command yields exactly one `Outcome`; invalid commands yield
/// [`Outcome::Rejected`] rather than panicking, so any interleaving of
/// commands is safe to feed to a session (a property the command-log
/// tests exercise).
#[derive(Debug, Clone)]
pub enum Outcome {
    /// The command applied; nothing further to report.
    Ack,
    /// Hover result: tooltip content, or `None` over empty space.
    Tooltip(Option<TooltipInfo>),
    /// The selection changed.
    Selection(SelectionDelta),
    /// A tab was opened (by loader, selection or aggregation).
    TabOpened {
        /// Index of the new tab (now active).
        tab: usize,
        /// Number of offers on it.
        offers: usize,
    },
    /// A tab was activated.
    TabActivated {
        /// Index of the now-active tab.
        tab: usize,
    },
    /// A tab was closed.
    TabClosed {
        /// Index the tab had before removal.
        tab: usize,
    },
    /// Aggregation ran on the active tab (which also clears the tab's
    /// selection).
    Aggregated {
        /// The numbers the Figure 11 panel shows.
        stats: AggregationStats,
        /// Ids that were selected before aggregation cleared them.
        deselected: Vec<FlexOfferId>,
    },
    /// A day-ahead plan ran (or incrementally refreshed); the balance
    /// tab now shows generation [`PlanStats::generation`].
    Planned(PlanStats),
    /// The heatmap tab focused on a geography member (via
    /// [`Command::RegionDrill`](crate::Command::RegionDrill) or
    /// [`Command::RegionUp`](crate::Command::RegionUp)).
    RegionFocus {
        /// The member now in focus (cells are its children).
        member: MemberId,
        /// Hierarchy level of the focus (0 = country).
        level: u8,
        /// Number of choropleth cells on the heatmap.
        cells: usize,
    },
    /// An MDX query evaluated to a pivot table.
    Pivot(PivotTable),
    /// A rendered, versioned frame.
    Frame(FrameRef),
    /// The command could not be applied; the session is unchanged.
    Rejected(String),
}

impl Outcome {
    /// `true` when the command was rejected.
    pub fn is_rejected(&self) -> bool {
        matches!(self, Outcome::Rejected(_))
    }

    /// The tooltip, if this outcome carries one.
    pub fn tooltip(self) -> Option<TooltipInfo> {
        match self {
            Outcome::Tooltip(info) => info,
            _ => None,
        }
    }

    /// The frame, if this outcome carries one.
    pub fn frame(self) -> Option<FrameRef> {
        match self {
            Outcome::Frame(f) => Some(f),
            _ => None,
        }
    }

    /// The frame's content hash, without consuming the outcome — the
    /// one number a replay compares across thread counts and runs.
    pub fn frame_hash(&self) -> Option<u64> {
        match self {
            Outcome::Frame(f) => Some(f.hash),
            _ => None,
        }
    }

    /// The plan stats, if this outcome carries them.
    pub fn plan(&self) -> Option<PlanStats> {
        match self {
            Outcome::Planned(stats) => Some(*stats),
            _ => None,
        }
    }

    /// The opened/activated tab index, if any.
    pub fn tab(&self) -> Option<usize> {
        match self {
            Outcome::TabOpened { tab, .. }
            | Outcome::TabActivated { tab }
            | Outcome::TabClosed { tab } => Some(*tab),
            _ => None,
        }
    }
}
