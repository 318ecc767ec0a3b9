//! The per-thread context record must stay readable while a thread's other
//! thread-locals are being destroyed: `ilt-prof`'s tracking allocator reads
//! it on every allocation, and destructors allocate and free.

use std::cell::RefCell;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use ilt_prof::Stage;

type Seen = (u64, Stage, Option<Instant>);

/// Reports what the context accessors say when its destructor runs.
struct Probe(mpsc::Sender<Seen>);

impl Drop for Probe {
    fn drop(&mut self) {
        let _ = self.0.send((
            ilt_telemetry::current_trace_raw(),
            ilt_prof::current_stage(),
            ilt_telemetry::deadline::current(),
        ));
    }
}

thread_local! {
    static PROBE: RefCell<Option<Probe>> = const { RefCell::new(None) };
}

#[test]
fn accessors_return_the_defaults_from_a_thread_local_destructor() {
    let (sender, receiver) = mpsc::channel();
    std::thread::spawn(move || {
        PROBE.with(|probe| *probe.borrow_mut() = Some(Probe(sender)));
        // A job's scopes unwind before the thread's locals are destroyed,
        // so the destructor must see the record back at its default.
        let (_id, _trace) = ilt_telemetry::new_trace_scope();
        let _stage = ilt_prof::stage_scope(Stage::Fine);
        let _deadline =
            ilt_telemetry::deadline::scope(Some(Instant::now() + Duration::from_secs(5)));
        // Registers the telemetry buffer's own destructor on this thread.
        drop(ilt_telemetry::span("teardown.probe"));
        assert_eq!(ilt_prof::current_stage(), Stage::Fine);
    })
    .join()
    .expect("a panicking destructor would have aborted the thread");
    let seen = receiver.recv().expect("the probe's destructor ran");
    assert_eq!(seen, (0, Stage::Untagged, None));
}
