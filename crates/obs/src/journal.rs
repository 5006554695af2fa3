//! The bounded event journal: a ring buffer of [`Event`]s.
//!
//! When the capacity is reached the *oldest* events are dropped, so long runs keep the recent history that
//! matters for debugging, and the drop count is carried in the
//! serialized form so a truncated journal is never mistaken for a
//! complete one.

use lagover_jsonio::{object, FromJson, Json, JsonError, ToJson};
use serde::{Deserialize, Serialize};

use crate::event::{Event, EventKind};

/// A bounded in-memory event journal (ring buffer, oldest dropped
/// first).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Journal {
    events: Vec<Event>,
    capacity: usize,
    dropped: u64,
    start: usize,
}

impl Journal {
    /// Creates a journal keeping at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0`.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "journal capacity must be positive");
        Journal {
            events: Vec::new(),
            capacity,
            dropped: 0,
            start: 0,
        }
    }

    /// Records an event.
    pub fn push(&mut self, event: Event) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.events[self.start] = event;
            self.start = (self.start + 1) % self.capacity;
            self.dropped += 1;
        }
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Events dropped due to the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + '_ {
        self.events[self.start..]
            .iter()
            .chain(self.events[..self.start].iter())
    }

    /// Removes the retained events, oldest first; the drop count stays.
    pub fn drain(&mut self) -> impl Iterator<Item = Event> + '_ {
        self.events.rotate_left(self.start);
        self.start = 0;
        self.events.drain(..)
    }

    /// Retained events per kind, in [`EventKind::ALL`] order — the fold
    /// the registry's counters must agree with when nothing was
    /// dropped.
    pub fn counts_by_kind(&self) -> Vec<(EventKind, u64)> {
        let mut counts = vec![0u64; EventKind::ALL.len()];
        for event in self.iter() {
            let slot = EventKind::ALL
                .iter()
                .position(|k| *k == event.kind())
                .expect("kind is in ALL");
            counts[slot] += 1;
        }
        EventKind::ALL.into_iter().zip(counts).collect()
    }
}

impl ToJson for Journal {
    fn to_json(&self) -> Json {
        object(vec![
            ("capacity", self.capacity.to_json()),
            ("dropped", self.dropped.to_json()),
            (
                "events",
                Json::Array(self.iter().map(ToJson::to_json).collect()),
            ),
        ])
    }
}

impl FromJson for Journal {
    fn from_json(value: &Json) -> Result<Self, JsonError> {
        let capacity = usize::from_json(value.get("capacity")?)?;
        let events: Vec<Event> = Vec::from_json(value.get("events")?)?;
        if capacity == 0 || events.len() > capacity {
            return Err(JsonError(format!(
                "journal holds {} events but claims capacity {capacity}",
                events.len()
            )));
        }
        Ok(Journal {
            events,
            capacity,
            dropped: u64::from_json(value.get("dropped")?)?,
            start: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Node;

    fn attach(round: u64, child: u32) -> Event {
        Event::Attach {
            round,
            child,
            parent: Node::Source,
        }
    }

    #[test]
    fn push_and_iterate_in_order() {
        let mut journal = Journal::new(10);
        for r in 0..5 {
            journal.push(attach(r, r as u32));
        }
        let rounds: Vec<u64> = journal.iter().map(|e| e.round()).collect();
        assert_eq!(rounds, vec![0, 1, 2, 3, 4]);
        assert_eq!(journal.len(), 5);
        assert_eq!(journal.dropped(), 0);
    }

    #[test]
    fn ring_buffer_keeps_newest() {
        let mut journal = Journal::new(3);
        for r in 0..7 {
            journal.push(attach(r, 0));
        }
        let rounds: Vec<u64> = journal.iter().map(|e| e.round()).collect();
        assert_eq!(rounds, vec![4, 5, 6]);
        assert_eq!(journal.dropped(), 4);
        assert_eq!(journal.len(), 3);
    }

    #[test]
    fn drain_empties_oldest_first_and_keeps_the_drop_count() {
        let mut journal = Journal::new(3);
        for r in 0..5 {
            journal.push(attach(r, 0));
        }
        let rounds: Vec<u64> = journal.drain().map(|e| e.round()).collect();
        assert_eq!(rounds, vec![2, 3, 4]);
        assert!(journal.is_empty());
        assert_eq!(journal.dropped(), 2);
        journal.push(attach(5, 0));
        assert_eq!(
            journal.iter().map(|e| e.round()).collect::<Vec<_>>(),
            vec![5]
        );
    }

    #[test]
    fn per_peer_filter_and_kind_counts() {
        let mut journal = Journal::new(10);
        journal.push(attach(0, 1));
        journal.push(attach(1, 2));
        journal.push(Event::OracleMiss { round: 2, peer: 1 });
        assert_eq!(journal.iter().filter(|e| e.peer() == 1).count(), 2);
        let counts = journal.counts_by_kind();
        assert_eq!(counts[0], (EventKind::Attach, 2));
        assert_eq!(counts[3], (EventKind::OracleMiss, 1));
    }

    #[test]
    fn json_round_trip_preserves_order_after_wrap() {
        let mut journal = Journal::new(4);
        for r in 0..9 {
            journal.push(attach(r, r as u32));
        }
        let json = lagover_jsonio::to_string(&journal);
        let back: Journal = lagover_jsonio::from_str(&json).expect("parses");
        assert_eq!(back.dropped(), journal.dropped());
        assert_eq!(
            back.iter().copied().collect::<Vec<_>>(),
            journal.iter().copied().collect::<Vec<_>>()
        );
        // Re-serializing the parsed journal is byte-stable.
        assert_eq!(lagover_jsonio::to_string(&back), json);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Journal::new(0);
    }
}
