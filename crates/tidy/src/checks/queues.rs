//! Queue-bounds analysis over the queue construction sites captured by
//! the parser.
//!
//! Every `VecDeque`, crossbeam `channel`, or `std::sync::mpsc`
//! construction in a crate with policy `concurrency=true` must either
//! use a capacity-fixing constructor (`with_capacity`, `bounded`,
//! `sync_channel`) or name the mechanism that bounds it in a `bound:`
//! comment on the construction line or the line directly above:
//!
//! ```text
//! // bound: capped at max_pending by the admission check below
//! pending: VecDeque::new(),
//! ```
//!
//! This is the snapshot-eviction bug class from the service review: an
//! unbounded completed-campaign map (or frame queue) grows for the
//! lifetime of a daemon that runs for hours. The comment is the bound's
//! documentation *and* the check's evidence — deleting one deletes the
//! other. Queues that are unbounded by design carry a justified
//! `tidy:allow(queue-bounds)` instead.

use crate::diag::{CheckId, Diagnostic};
use crate::graph::Workspace;

/// Runs the check over the workspace graph, appending raw
/// `(file_idx, diagnostic)` pairs (the driver applies suppressions).
pub fn check(ws: &Workspace, out: &mut Vec<(usize, Diagnostic)>) {
    for f in &ws.fns {
        if !f.policy.concurrency {
            continue;
        }
        for q in &f.item.queues {
            if q.bounded || q.bound_named {
                continue;
            }
            out.push((
                f.file_idx,
                Diagnostic::new(
                    &f.rel,
                    q.line,
                    CheckId::QueueBounds,
                    format!(
                        "`{}` builds an unbounded queue; use a bounded \
                         constructor or name the enforcing mechanism in a \
                         `// bound: …` comment at the construction site",
                        q.what
                    ),
                ),
            ));
        }
    }
}
