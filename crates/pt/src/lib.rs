//! An Intel Processor Trace (Intel PT) simulator.
//!
//! The paper's prototype (Gist, §3.2.2/§4) uses Intel PT — "a set of new
//! hardware monitoring features for debugging" that "records the execution
//! flow of a program and outputs a highly-compressed trace (~0.5 bits per
//! retired assembly instruction)". Real PT was only available on Broadwell
//! parts in 2015; this crate reproduces the mechanism at packet level:
//!
//! * [`packet::Packet`] — PSB, PIP, TIP.PGE/TIP.PGD, short-TNT, TIP, FUP
//!   and OVF packets with a binary encoding, so trace *bytes* are real and
//!   the "~0.5 bits / retired instruction" figure is measurable,
//! * [`buffer::TraceBuffer`] — per-core fixed-capacity buffers (2 MB in
//!   the paper's kernel driver) with stop-on-full overflow semantics,
//! * [`tracer::PtTracer`] — the hardware side: consumes VM events and
//!   emits packets; honors RET compression via per-thread call depth, and
//!   emits PIP on context switches so traces stay decodable per core,
//! * [`driver::PtDriver`] — the ioctl-like per-core control state Gist's
//!   instrumentation sets to start/stop tracing (§4), owned by the tracer,
//! * [`code_map::CodeMap`] — the program's per-statement successors, the
//!   one table both the tracer and the decoder read,
//! * [`decoder`] — reconstructs the executed statement sequence per core
//!   from packets plus the code map, exactly the way a PT decoder walks
//!   the binary.
//!
//! PT traces are control flow only, and only *partially ordered* across
//! cores (§6) — both properties are preserved here, which is why Gist needs
//! the watchpoint unit (gist-watch) for data values and cross-core order.

pub mod buffer;
pub mod code_map;
pub mod decoder;
pub mod driver;
pub mod packet;
pub mod tracer;

pub use buffer::TraceBuffer;
pub use code_map::CodeMap;
pub use decoder::{decode, DecodeError, DecodedTrace};
pub use driver::PtDriver;
pub use packet::Packet;
pub use tracer::{PtConfig, PtTracer};
