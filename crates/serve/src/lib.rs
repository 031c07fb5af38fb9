//! `flames-serve`: the network-facing diagnosis service.
//!
//! A zero-dependency (std-only) blocking HTTP/1.1 server over the
//! FLAMES serving stack: `POST /diagnose` accepts a batch of
//! measurement sets and returns ranked candidates plus the recommended
//! next probe; an admission-control queue coalesces concurrent requests
//! into waves of at most 64 boards, collapses bit-identical boards onto
//! one propagation, and propagates each unique board alone on a warm
//! session, so duplicate concurrent queries are nearly free — and,
//! because each board's run is a solo run, invisibly so. Overload is shed explicitly (429/503 with an
//! `{"error": {...}}` taxonomy body), deadlines are honoured per
//! request, `GET /metrics` dumps the process-wide counter table, and
//! `GET /trace/:id` streams the Chrome trace of a completed request.
//! The serving path builds no trace: the server keeps the boards of
//! recent requests and the GET replays them
//! ([`wave::replay_traces`]), which is exact because served bytes are
//! a pure function of board content.
//!
//! ```no_run
//! use flames_serve::{serve, Client, ServeConfig};
//! # fn main() -> std::io::Result<()> {
//! # let diagnoser: flames_core::Diagnoser = unimplemented!();
//! let handle = serve("127.0.0.1:0", diagnoser, ServeConfig::default())?;
//! let mut client = Client::connect(handle.addr())?;
//! let response = client.diagnose(
//!     r#"{"boards": [[{"point": "Vmid", "value": 6.1}]]}"#,
//! )?;
//! assert_eq!(response.status, 200);
//! handle.shutdown();
//! # Ok(())
//! # }
//! ```

pub mod client;
pub mod error;
pub mod http;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod wave;

pub use client::{Client, Response};
pub use error::{ErrorKind, ServeError};
pub use protocol::{DiagnoseRequest, MAX_BOARDS_PER_REQUEST};
pub use server::{serve, ServeConfig, ServerHandle};
pub use wave::{diagnose_boards, diagnose_boards_cached, run_wave_cached, BoardOutcome, NextProbe};
