//! The one ordered two-thread loop of the store: the walk's block decode
//! ([`crate::query::Query::walk`]) and the seal's block encode
//! (`TraceDb::seal`) both run on it.
//!
//! `n` items are worked on the calling thread and, when it pays, on one
//! scoped helper thread, in the manner of morsel-driven query evaluation
//! (Leis et al., SIGMOD 2014) with the blocks as the morsels. Both
//! threads claim the next item from one counter, so the split follows
//! what each thread's share costs, and every item is handed to a visitor
//! on the calling thread, strictly in order. Each thread works into
//! buffers of its own, reused from item to item: at most three items'
//! buffers are resident at once.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::OnceLock;
use std::thread;

use crate::segment::{ColumnId, BLOCK_ROWS};

/// Work starts the helper only if it holds at least this many values
/// (rows times lanes to decode or encode), four whole blocks' worth:
/// below it, the helper was measured to cost about what it saves, or
/// more (DESIGN.md §12, "Two decode threads"). Work of fewer than four
/// blocks never starts it, and neither does work on no value.
const HELPER_MIN_VALUES: u64 = 4 * (BLOCK_ROWS * ColumnId::ALL.len()) as u64;

/// Buffers the helper owns: one it fills while the calling thread visits
/// the other.
const HELPER_BUFFERS: usize = 2;

/// Whether work on `values` values (rows times lanes) starts the helper:
/// the host runs two threads at once and the work holds at least
/// [`HELPER_MIN_VALUES`].
pub(crate) fn helper_pays(values: u64) -> bool {
    values >= HELPER_MIN_VALUES && parallel_host()
}

/// Whether this host runs two threads at once; asked once per process.
fn parallel_host() -> bool {
    static PARALLEL: OnceLock<bool> = OnceLock::new();
    *PARALLEL.get_or_init(|| thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// An item the helper worked: its position, its buffer and how the work
/// went.
type Done<B, E> = (usize, B, Result<(), E>);

/// The calling thread's ends of the helper's channels: worked items
/// arrive on the first, buffers go back on the second.
type Helper<B, E> = (Receiver<Done<B, E>>, SyncSender<B>);

/// Works items `0..n` with `work` and hands each, worked, to `visit` on
/// the calling thread, in order.
///
/// The calling thread works into `own`. With `helper`, one scoped helper
/// thread works beside it, into [`HELPER_BUFFERS`] buffers that start as
/// `B::default()` and grow on the helper, in its own heap arena (grown
/// on the calling thread, they went back to its heap at the end of each
/// walk, which handed their pages back, and the next walk faulted them
/// in again). Both threads claim the next unworked item from one
/// counter. The calling thread visits an item the helper has finished
/// before it claims another, and claims none while it holds one worked
/// ahead of its turn; the helper waits for a buffer to come back. Without
/// a helper (or if it cannot be started) the calling thread claims every
/// item in turn, which is the same loop.
///
/// Returns the first error in item order, a `work`'s or `visit`'s. On it
/// the helper's channels close, it stops after the item in hand, and the
/// scope joins it before this returns.
pub(crate) fn in_order<B, E>(
    n: usize,
    helper: bool,
    mut own: B,
    work: &(impl Fn(&mut B, usize) -> Result<(), E> + Sync),
    visit: &mut dyn FnMut(usize, &B) -> Result<(), E>,
) -> Result<(), E>
where
    B: Default + Send,
    E: Send,
{
    // The next item to work. `Relaxed` is enough: the counter only hands
    // out item numbers, and worked buffers travel over channels, which
    // synchronise.
    let claim = AtomicUsize::new(0);
    thread::scope(|s| {
        let helper = if helper {
            spawn_helper(s, n, &claim, work)
        } else {
            None
        };
        let mut own_result = Ok(());
        // The item `own` holds, worked ahead of its turn.
        let mut own_at = None;
        for v in 0..n {
            loop {
                if own_at == Some(v) {
                    own_at = None;
                    std::mem::replace(&mut own_result, Ok(()))?;
                    visit(v, &own)?;
                    break;
                }
                if let Some((done, free)) = &helper {
                    // Item `v` is the helper's if it claimed it: surely
                    // so while `own` is ahead or nothing is left to claim.
                    let theirs = own_at.is_some() || claim.load(Ordering::Relaxed) >= n;
                    let ready = match theirs {
                        true => Some(done.recv().expect("the helper sends every item it claims")),
                        false => done.try_recv().ok(),
                    };
                    if let Some((k, b, result)) = ready {
                        assert_eq!(k, v, "the helper's items arrive in order");
                        result?;
                        visit(v, &b)?;
                        // Fails only once the helper has stopped.
                        let _ = free.send(b);
                        break;
                    }
                }
                let k = claim.fetch_add(1, Ordering::Relaxed);
                if k < n {
                    own_result = work(&mut own, k);
                    own_at = Some(k);
                }
            }
        }
        Ok(())
    })
}

/// Starts [`in_order`]'s helper on `s`: it claims items below `n` off
/// `claim` and works each into a buffer it owns, until none is left, a
/// `work` fails, or the calling thread hangs up. Returns its channels;
/// `None` if the thread could not be started.
fn spawn_helper<'scope, 'env, B, E>(
    s: &'scope thread::Scope<'scope, 'env>,
    n: usize,
    claim: &'env AtomicUsize,
    work: &'env (impl Fn(&mut B, usize) -> Result<(), E> + Sync),
) -> Option<Helper<B, E>>
where
    B: Default + Send + 'env,
    E: Send + 'env,
{
    let (done_tx, done_rx) = sync_channel(HELPER_BUFFERS);
    let (free_tx, free_rx) = sync_channel(HELPER_BUFFERS);
    for _ in 0..HELPER_BUFFERS {
        free_tx
            .send(B::default())
            .expect("the channel holds every buffer");
    }
    thread::Builder::new()
        .name("vnt-helper".into())
        .spawn_scoped(s, move || {
            while let Ok(mut b) = free_rx.recv() {
                let k = claim.fetch_add(1, Ordering::Relaxed);
                if k >= n {
                    break;
                }
                let result = work(&mut b, k);
                let failed = result.is_err();
                if done_tx.send((k, b, result)).is_err() || failed {
                    break;
                }
            }
        })
        .ok()?;
    Some((done_rx, free_tx))
}
