//! Stable structured-trace event ids.
//!
//! Every event in the trace ring carries one of these ids. Discriminants
//! are explicit and **never reused**: external tooling that parses the
//! JSON-lines sink keys on them, so removing an event retires its number.

/// Stable id of a structured trace event.
///
/// Operands `a`/`b` are event-specific (documented per variant); unused
/// operands are 0. Codes 5, 7 and 8 (chunk start, session start and end)
/// are retired: nothing emitted them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(u16)]
#[non_exhaustive]
pub enum TraceId {
    /// A link queue dropped a packet. `a` = flow id, `b` = packet bytes.
    LinkDrop = 1,
    /// Player entered the rebuffering state. `a` = next chunk index.
    RebufferStart = 2,
    /// Player resumed from rebuffering. `a` = stall duration ms.
    RebufferEnd = 3,
    /// ABR switched quality rung. `a` = previous rung, `b` = new rung.
    RungSwitch = 4,
    /// A chunk download finished. `a` = chunk index, `b` = download ms.
    ChunkDone = 6,
    /// TCP fast-retransmit loss event. `a` = cwnd bytes after reaction.
    TcpLossEvent = 9,
    /// TCP retransmission timeout fired. `a` = cwnd bytes after reaction.
    TcpRto = 10,
}

impl TraceId {
    /// Stable human-readable name (used by both sinks).
    pub fn name(self) -> &'static str {
        match self {
            TraceId::LinkDrop => "link_drop",
            TraceId::RebufferStart => "rebuffer_start",
            TraceId::RebufferEnd => "rebuffer_end",
            TraceId::RungSwitch => "rung_switch",
            TraceId::ChunkDone => "chunk_done",
            TraceId::TcpLossEvent => "tcp_loss_event",
            TraceId::TcpRto => "tcp_rto",
        }
    }

    /// The stable numeric id.
    pub fn code(self) -> u16 {
        self as u16
    }

    /// The variant for a stable numeric id, or `None` for a retired or
    /// unknown code (snapshot decoding must not panic on foreign data).
    pub fn from_code(code: u16) -> Option<TraceId> {
        Some(match code {
            1 => TraceId::LinkDrop,
            2 => TraceId::RebufferStart,
            3 => TraceId::RebufferEnd,
            4 => TraceId::RungSwitch,
            6 => TraceId::ChunkDone,
            9 => TraceId::TcpLossEvent,
            10 => TraceId::TcpRto,
            _ => return None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_stable() {
        assert_eq!(TraceId::LinkDrop.code(), 1);
        assert_eq!(TraceId::TcpRto.code(), 10);
        assert_eq!(TraceId::RungSwitch.name(), "rung_switch");
    }

    #[test]
    fn from_code_round_trips() {
        for code in [1, 2, 3, 4, 6, 9, 10u16] {
            let id = TraceId::from_code(code).unwrap();
            assert_eq!(id.code(), code);
        }
        for retired in [0, 5, 7, 8, 11] {
            assert_eq!(TraceId::from_code(retired), None);
        }
        assert_eq!(TraceId::from_code(999), None);
    }
}
