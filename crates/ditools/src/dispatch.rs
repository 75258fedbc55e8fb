//! The interposition dispatcher.
//!
//! [`Interposer`] is the safe stand-in for DITools' dynamic-linkage
//! rewriting: callers invoke their encapsulated loop functions *through* it
//! ([`Interposer::intercept`]); the interposer fires every attached
//! [`CallObserver`] with the function's address before (and after) the body
//! runs — the `(1) DI_event → (2) DPD → (3) SelfAnalyzer` chain of the
//! paper's Figure 6 hangs off these hooks.

use crate::hook::CallObserver;
use crate::registry::{FnAddr, Registry};

/// Dispatches intercepted calls to observers and then to the real callee.
///
/// # Examples
/// ```
/// use ditools::dispatch::Interposer;
/// use ditools::hook::RecordingObserver;
/// use ditools::registry::Registry;
/// use std::cell::RefCell;
/// use std::rc::Rc;
///
/// let mut ip = Interposer::new(Registry::new());
/// let recorder = Rc::new(RefCell::new(RecordingObserver::new()));
/// ip.attach(Box::new(Rc::clone(&recorder)));
///
/// let loop_fn = ip.register("omp_parallel_do_1");
/// let result = ip.intercept(loop_fn, 0, || 40 + 2); // runs the "loop"
/// assert_eq!(result, 42);
/// assert_eq!(recorder.borrow().address_stream(), vec![loop_fn.raw()]);
/// ```
pub struct Interposer {
    registry: Registry,
    observers: Vec<Box<dyn CallObserver>>,
    intercepted: u64,
}

impl Interposer {
    /// Interposer over an existing registry.
    pub fn new(registry: Registry) -> Self {
        Interposer {
            registry,
            observers: Vec::new(),
            intercepted: 0,
        }
    }

    /// Register a function in the underlying registry.
    pub fn register(&mut self, name: impl Into<String>) -> FnAddr {
        self.registry.register(name)
    }

    /// Attach an observer; observers fire in attachment order.
    pub fn attach(&mut self, observer: Box<dyn CallObserver>) {
        self.observers.push(observer);
    }

    /// The wrapped registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Total calls intercepted so far.
    pub fn intercepted(&self) -> u64 {
        self.intercepted
    }

    /// Intercept a call to `addr` at time `t_ns`: fire pre-call hooks, run
    /// `body`, fire post-call hooks, and return the body's value.
    pub fn intercept<R>(&mut self, addr: FnAddr, t_ns: u64, body: impl FnOnce() -> R) -> R {
        self.intercept_timed(addr, t_ns, || (body(), t_ns))
    }

    /// Intercept a call where the body also needs to report its completion
    /// time (e.g. after advancing a virtual clock): `body` returns
    /// `(value, end_t_ns)` and the post-call hooks fire with `end_t_ns`.
    pub fn intercept_timed<R>(
        &mut self,
        addr: FnAddr,
        t_ns: u64,
        body: impl FnOnce() -> (R, u64),
    ) -> R {
        self.intercepted += 1;
        for obs in &mut self.observers {
            obs.on_call(addr, t_ns);
        }
        let (result, end_ns) = body();
        for obs in &mut self.observers {
            obs.on_return(addr, end_ns);
        }
        result
    }

    /// Detach all observers, returning them (used to read results out of
    /// recording observers at the end of a run).
    pub fn take_observers(&mut self) -> Vec<Box<dyn CallObserver>> {
        std::mem::take(&mut self.observers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hook::RecordingObserver;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Observer that shares its log through an Rc so tests can inspect it
    /// while the interposer owns the box.
    struct SharedRecorder(Rc<RefCell<Vec<(i64, u64, bool)>>>);
    impl CallObserver for SharedRecorder {
        fn on_call(&mut self, addr: FnAddr, t: u64) {
            self.0.borrow_mut().push((addr.raw(), t, true));
        }
        fn on_return(&mut self, addr: FnAddr, t: u64) {
            self.0.borrow_mut().push((addr.raw(), t, false));
        }
    }

    #[test]
    fn intercept_fires_hooks_and_runs_body() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut ip = Interposer::new(Registry::new());
        let f = ip.register("loop_a");
        ip.attach(Box::new(SharedRecorder(Rc::clone(&log))));
        let out = ip.intercept(f, 42, || 99);
        assert_eq!(out, 99);
        let log = log.borrow();
        assert_eq!(*log, vec![(f.raw(), 42, true), (f.raw(), 42, false)]);
        assert_eq!(ip.intercepted(), 1);
    }

    #[test]
    fn observers_fire_in_order() {
        struct Tagger(Rc<RefCell<Vec<u8>>>, u8);
        impl CallObserver for Tagger {
            fn on_call(&mut self, _: FnAddr, _: u64) {
                self.0.borrow_mut().push(self.1);
            }
        }
        let tags = Rc::new(RefCell::new(Vec::new()));
        let mut ip = Interposer::new(Registry::new());
        let f = ip.register("f");
        ip.attach(Box::new(Tagger(Rc::clone(&tags), 1)));
        ip.attach(Box::new(Tagger(Rc::clone(&tags), 2)));
        ip.intercept(f, 0, || ());
        assert_eq!(*tags.borrow(), vec![1, 2]);
    }

    #[test]
    fn timed_intercept_reports_end_time() {
        let log = Rc::new(RefCell::new(Vec::new()));
        let mut ip = Interposer::new(Registry::new());
        let f = ip.register("loop_a");
        ip.attach(Box::new(SharedRecorder(Rc::clone(&log))));
        let v = ip.intercept_timed(f, 100, || ("done", 250u64));
        assert_eq!(v, "done");
        let log = log.borrow();
        assert_eq!(*log, vec![(f.raw(), 100, true), (f.raw(), 250, false)]);
    }

    #[test]
    fn take_observers_returns_recorders() {
        let mut ip = Interposer::new(Registry::new());
        let f = ip.register("f");
        ip.attach(Box::new(RecordingObserver::new()));
        ip.intercept(f, 1, || ());
        ip.intercept(f, 2, || ());
        let obs = ip.take_observers();
        assert_eq!(obs.len(), 1);
        // After taking, intercepts proceed without hooks.
        ip.intercept(f, 3, || ());
        assert_eq!(ip.intercepted(), 3);
    }

    #[test]
    fn body_value_passthrough_with_no_observers() {
        let mut ip = Interposer::new(Registry::new());
        let f = ip.register("f");
        assert_eq!(ip.intercept(f, 0, || vec![1, 2, 3]).len(), 3);
    }
}
