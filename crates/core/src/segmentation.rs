//! Stream segmentation built on top of the streaming detector.
//!
//! The paper's first application of periodicity knowledge (§1): "the dynamic
//! segmentation of the data stream in periods. Periods in a data stream or
//! multiples of them may represent reasonable intervals for performance
//! measurement." [`Segmenter`] turns the raw [`SegmentEvent`] stream into
//! explicit [`Segment`] records, and [`segment_events`] is the convenience
//! entry point used by the Figure 7 reproduction.

use crate::streaming::SegmentEvent;

/// One contiguous segment of the stream covered by a periodicity lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// Position of the first sample of the segment (a period start).
    pub start: u64,
    /// The last period start plus one period, so the final period may run
    /// past the last sample of the stream; a lock loss cuts it at the loss
    /// position.
    pub end: u64,
    /// Period length in samples.
    pub period: usize,
    /// Number of period starts inside the segment. Every period but the
    /// last is whole; the last may run past the stream or be cut by a lock
    /// loss.
    pub periods: u64,
}

impl Segment {
    /// Length of the segment in samples.
    pub fn len(&self) -> u64 {
        self.end - self.start
    }

    /// `true` when the segment holds no period start.
    pub fn is_empty(&self) -> bool {
        self.periods == 0
    }
}

/// Accumulates [`SegmentEvent`]s into [`Segment`] records.
#[derive(Debug, Clone, Default)]
pub struct Segmenter {
    open: Option<Segment>,
    done: Vec<Segment>,
    /// Positions at which a period-start was signalled (the `*` marks of the
    /// paper's Figure 7).
    marks: Vec<u64>,
}

impl Segmenter {
    /// New, empty segmenter.
    pub fn new() -> Self {
        Segmenter::default()
    }

    /// Feed one event (as returned by [`crate::streaming::StreamingDpd::push`]).
    pub fn observe(&mut self, event: SegmentEvent) {
        match event {
            SegmentEvent::None => {}
            SegmentEvent::PeriodStart { period, position } => {
                self.marks.push(position);
                match &mut self.open {
                    Some(seg) if seg.period == period => {
                        seg.end = position + period as u64;
                        seg.periods += 1;
                    }
                    Some(seg) => {
                        // Period changed without an explicit loss event.
                        let closed = *seg;
                        self.done.push(closed);
                        self.open = Some(Segment {
                            start: position,
                            end: position + period as u64,
                            period,
                            periods: 1,
                        });
                    }
                    None => {
                        self.open = Some(Segment {
                            start: position,
                            end: position + period as u64,
                            period,
                            periods: 1,
                        });
                    }
                }
            }
            SegmentEvent::PeriodLost { position, .. } => {
                if let Some(mut seg) = self.open.take() {
                    // The segment ends where the structure broke.
                    seg.end = seg.end.min(position);
                    self.done.push(seg);
                }
            }
        }
    }

    /// Close any open segment and return all segments, stream order.
    pub fn finish(mut self) -> Vec<Segment> {
        if let Some(seg) = self.open.take() {
            self.done.push(seg);
        }
        self.done
    }

    /// Segments closed so far (not including a still-open one).
    pub fn closed(&self) -> &[Segment] {
        &self.done
    }

    /// The currently open segment, if a lock is active.
    pub fn open_segment(&self) -> Option<Segment> {
        self.open
    }

    /// Positions of all period-start marks (Figure 7's `*` markers).
    pub fn marks(&self) -> &[u64] {
        &self.marks
    }
}

/// Run a fresh event-stream detector over `data` and return the segmentation
/// together with the per-sample events (Figure 7 helper).
///
/// # Panics
/// Panics if `window` is zero; build the detector with
/// [`DpdBuilder`](crate::pipeline::DpdBuilder) and feed a [`Segmenter`] to
/// get that as an error instead.
pub fn segment_events(data: &[i64], window: usize) -> (Vec<Segment>, Vec<u64>) {
    let mut dpd = crate::pipeline::DpdBuilder::new()
        .window(window)
        .build_detector()
        .expect("invalid segmentation window");
    let mut seg = Segmenter::new();
    // Batch ingestion: push_slice returns only the non-trivial events, and
    // observe() ignores `None`, so this is equivalent to per-sample feeding.
    for event in dpd.push_slice(data) {
        seg.observe(event);
    }
    let marks = seg.marks().to_vec();
    (seg.finish(), marks)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_periodic_stream_is_one_segment() {
        let data: Vec<i64> = (0..60).map(|i| [1, 2, 3, 4, 5][i % 5]).collect();
        let (segments, marks) = segment_events(&data, 10);
        assert_eq!(segments.len(), 1);
        let seg = segments[0];
        assert_eq!(seg.period, 5);
        assert!(seg.periods >= 8, "periods: {}", seg.periods);
        assert!(!seg.is_empty());
        // Marks are spaced exactly one period apart.
        for w in marks.windows(2) {
            assert_eq!(w[1] - w[0], 5);
        }
    }

    #[test]
    fn phase_change_produces_two_segments() {
        let mut data: Vec<i64> = (0..45).map(|i| [1, 2, 3][i % 3]).collect();
        data.extend((0..60).map(|i| [9, 8, 7, 6][i % 4]));
        let (segments, _) = segment_events(&data, 8);
        assert!(segments.len() >= 2, "segments: {segments:?}");
        assert_eq!(segments[0].period, 3);
        assert_eq!(segments.last().unwrap().period, 4);
        // Segments do not overlap and appear in stream order.
        for w in segments.windows(2) {
            assert!(w[0].end <= w[1].start, "overlap: {w:?}");
        }
    }

    #[test]
    fn aperiodic_stream_yields_no_segments() {
        let data: Vec<i64> = (0..100).collect();
        let (segments, marks) = segment_events(&data, 16);
        assert!(segments.is_empty());
        assert!(marks.is_empty());
    }

    #[test]
    fn segment_len_and_emptiness() {
        let s = Segment {
            start: 10,
            end: 25,
            period: 5,
            periods: 3,
        };
        assert_eq!(s.len(), 15);
        assert!(!s.is_empty());
    }

    #[test]
    fn observe_period_change_without_loss_event() {
        let mut seg = Segmenter::new();
        seg.observe(SegmentEvent::PeriodStart {
            period: 3,
            position: 0,
        });
        seg.observe(SegmentEvent::PeriodStart {
            period: 3,
            position: 3,
        });
        seg.observe(SegmentEvent::PeriodStart {
            period: 5,
            position: 6,
        });
        let segments = seg.finish();
        assert_eq!(segments.len(), 2);
        assert_eq!(segments[0].period, 3);
        assert_eq!(segments[1].period, 5);
    }

    #[test]
    fn loss_truncates_open_segment() {
        let mut seg = Segmenter::new();
        seg.observe(SegmentEvent::PeriodStart {
            period: 4,
            position: 0,
        });
        seg.observe(SegmentEvent::PeriodStart {
            period: 4,
            position: 4,
        });
        // Structure breaks midway through the next period.
        seg.observe(SegmentEvent::PeriodLost {
            period: 4,
            position: 6,
        });
        let segments = seg.finish();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].end, 6);
        assert_eq!(segments[0].periods, 2);
    }

    #[test]
    fn open_segment_visible_before_finish() {
        let mut seg = Segmenter::new();
        assert!(seg.open_segment().is_none());
        seg.observe(SegmentEvent::PeriodStart {
            period: 2,
            position: 8,
        });
        let open = seg.open_segment().unwrap();
        assert_eq!(open.start, 8);
        assert_eq!(open.period, 2);
        assert!(seg.closed().is_empty());
    }
}
