//! The assembled execution environment on one Thing (paper Figure 8,
//! minus the network stack, which `upnp-core` adds on top).
//!
//! The runtime owns the event router, driver manager, native libraries and
//! hardware context, and advances a deterministic virtual clock. Its
//! dispatch loop models the single-threaded MCU: one event at a time, each
//! handler run to completion, bus completions delivered from the deferred
//! queue only when the router drains — then time jumps to the next
//! completion.

use std::sync::Arc;

use upnp_dsl::events::{errors, ids, libs};
use upnp_dsl::image::DriverImage;
use upnp_sim::{AvrCostModel, CpuCost, EnergyMeter, Scheduler, SimDuration, SimTime};

use crate::manager::{DriverManager, InstallError, SlotId};
use crate::natives::{DeferredAction, HwContext, NativeLibs};
use crate::router::{Endpoint, EventRouter, RoutedEvent};
use crate::value::Cell;
use crate::vm::{ReturnValue, VmError};

/// A token identifying an in-flight remote operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct OpToken(pub u64);

/// The kind of remote operation pending on a driver (§5.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingKind {
    /// `read`: expects a value back.
    Read,
    /// `write`: expects an acknowledgement.
    Write,
    /// `stream`: expects periodic values (each `return` produces one).
    Stream,
}

/// A resolved operation, ready for the network layer to answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedOp {
    /// The token from [`Runtime::request`].
    pub token: OpToken,
    /// The driver slot that served it.
    pub slot: SlotId,
    /// What kind of operation it was.
    pub kind: PendingKind,
    /// The returned value (`None` for acknowledgements or missing
    /// handlers).
    pub value: Option<ReturnValue>,
    /// Virtual time of completion.
    pub at: SimTime,
}

#[derive(Debug)]
struct PendingOp {
    token: OpToken,
    slot: SlotId,
    kind: PendingKind,
}

/// The per-Thing execution environment.
pub struct Runtime {
    /// The two-queue event router.
    pub router: EventRouter,
    /// Installed drivers.
    pub manager: DriverManager,
    /// Native library state.
    pub natives: NativeLibs,
    /// Buses, peripherals and the physical environment.
    pub hw: HwContext,
    sched: Scheduler<DeferredAction>,
    now: SimTime,
    avr: AvrCostModel,
    cpu_meter: EnergyMeter,
    bus_meter: EnergyMeter,
    pending: Vec<PendingOp>,
    completed: Vec<CompletedOp>,
    next_token: u64,
    events_dispatched: u64,
    instructions_retired: u64,
}

/// Blueprint for per-Thing runtimes.
///
/// The CPU cost model and hardware defaults are fleet-invariant;
/// [`RuntimeTemplate::instantiate`] wires a fresh per-Thing context
/// (buses, router, meters) around them. One template serves an entire
/// fleet build — only the noise seed varies per Thing.
#[derive(Debug, Clone, Copy)]
pub struct RuntimeTemplate {
    avr: AvrCostModel,
}

impl Default for RuntimeTemplate {
    fn default() -> Self {
        RuntimeTemplate {
            avr: AvrCostModel::atmega128rfa1(),
        }
    }
}

impl RuntimeTemplate {
    /// Stamps out one runtime seeded with `seed`.
    pub fn instantiate(&self, seed: u64) -> Runtime {
        Runtime {
            router: EventRouter::new(),
            manager: DriverManager::new(),
            natives: NativeLibs::new(),
            hw: HwContext::new(seed),
            sched: Scheduler::new(),
            now: SimTime::ZERO,
            avr: self.avr,
            cpu_meter: EnergyMeter::new("mcu"),
            bus_meter: EnergyMeter::new("bus"),
            pending: Vec::new(),
            completed: Vec::new(),
            next_token: 1,
            events_dispatched: 0,
            instructions_retired: 0,
        }
    }
}

impl Runtime {
    /// Creates a runtime with default hardware and the given noise seed.
    pub fn new(seed: u64) -> Self {
        RuntimeTemplate::default().instantiate(seed)
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Advances the clock to `at` (idle time costs nothing: the MCU
    /// sleeps).
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn advance_to(&mut self, at: SimTime) {
        assert!(at >= self.now, "runtime clock cannot go backwards");
        self.now = at;
    }

    /// Charges an externally-incurred CPU cost (e.g. network-stack packet
    /// processing) against the clock and energy meter.
    pub fn charge(&mut self, cost: CpuCost) {
        self.charge_cpu(cost);
    }

    /// Cumulative MCU energy, joules.
    pub fn cpu_energy_j(&self) -> f64 {
        self.cpu_meter.total_j()
    }

    /// Cumulative bus/peripheral-communication energy, joules.
    pub fn bus_energy_j(&self) -> f64 {
        self.bus_meter.total_j()
    }

    /// Lifetime counters: `(events dispatched, instructions retired)`.
    pub fn stats(&self) -> (u64, u64) {
        (self.events_dispatched, self.instructions_retired)
    }

    /// Installs a driver for the peripheral on `channel` and fires its
    /// `init` event (§4.1: "an init event is automatically fired by the
    /// µPnP runtime when a new peripheral is plugged in and its
    /// corresponding driver is installed").
    ///
    /// # Errors
    ///
    /// See [`DriverManager::install`].
    pub fn install_driver(
        &mut self,
        image: impl Into<Arc<DriverImage>>,
        channel: u8,
    ) -> Result<SlotId, InstallError> {
        let slot = self.manager.install(image, channel)?;
        self.router.post(RoutedEvent {
            dst: Endpoint::Driver(slot),
            event: ids::INIT,
            args: Vec::new(),
        });
        Ok(slot)
    }

    /// Fires `destroy` and removes the driver in `slot`.
    pub fn remove_driver(&mut self, slot: SlotId) {
        if self.manager.get(slot).is_some() {
            self.router.post(RoutedEvent {
                dst: Endpoint::Driver(slot),
                event: ids::DESTROY,
                args: Vec::new(),
            });
            self.run_until_idle();
            self.manager.remove(slot);
            // Drop any pending operations against the removed driver.
            self.pending.retain(|p| p.slot != slot);
        }
    }

    /// Issues a remote operation (read/write/stream) against a driver.
    /// Returns the token that will appear in a [`CompletedOp`].
    pub fn request(&mut self, slot: SlotId, kind: PendingKind, args: Vec<Cell>) -> OpToken {
        let token = OpToken(self.next_token);
        self.next_token += 1;
        let event = match kind {
            PendingKind::Read => ids::READ,
            PendingKind::Write => ids::WRITE,
            PendingKind::Stream => ids::STREAM,
        };
        self.pending.push(PendingOp { token, slot, kind });
        self.router.post(RoutedEvent {
            dst: Endpoint::Driver(slot),
            event,
            args,
        });
        token
    }

    /// Posts an arbitrary event to a driver (used by the network layer and
    /// tests).
    pub fn post_event(&mut self, slot: SlotId, event: u8, args: Vec<Cell>) {
        self.router.post(RoutedEvent {
            dst: Endpoint::Driver(slot),
            event,
            args,
        });
    }

    /// Pumps the UART: moves device bytes into the FIFO and schedules
    /// per-byte `newdata` deliveries with wire timing. Call after changing
    /// the environment (e.g. presenting an RFID card).
    pub fn pump_uart(&mut self) {
        let Some(reader) = self.natives.uart_reader else {
            return;
        };
        let Some(mut device) = self.hw.uart_device.take() else {
            return;
        };
        let result = self.hw.uart.pump(device.as_mut(), &mut self.hw.env);
        self.hw.uart_device = Some(device);
        let Ok((n, tx)) = result else {
            return;
        };
        if n == 0 {
            return;
        }
        self.bus_meter.charge_j(tx.energy_j);
        let byte_time = tx.duration / n as u64;
        let mut delay = SimDuration::ZERO;
        while let Some(byte) = self.hw.uart.read_byte() {
            delay += byte_time;
            self.natives.uart_rx_gen += 1;
            self.sched.schedule_at(
                self.clamp_future(delay),
                DeferredAction::Post(RoutedEvent {
                    dst: Endpoint::Driver(reader),
                    event: ids::NEWDATA,
                    args: vec![Cell::from_i32(byte as i32)],
                }),
            );
        }
        if self.hw.uart.take_overrun() {
            self.router.post(RoutedEvent {
                dst: Endpoint::Driver(reader),
                event: errors::BUS_ERROR,
                args: Vec::new(),
            });
        }
    }

    /// Schedules a deferred action `delay` from now.
    fn defer(&mut self, delay: SimDuration, action: DeferredAction) {
        self.sched.schedule_at(self.clamp_future(delay), action);
    }

    /// Absolute schedule time for a relative delay, respecting the
    /// scheduler's internal clock (which lags `self.now`).
    fn clamp_future(&self, delay: SimDuration) -> SimTime {
        let t = self.now + delay;
        if t < self.sched.now() {
            self.sched.now()
        } else {
            t
        }
    }

    /// Runs until both the router and the deferred queue are empty.
    /// Returns operations completed during this run.
    pub fn run_until_idle(&mut self) -> Vec<CompletedOp> {
        loop {
            // A subscribed UART reader picks up any bytes the device has
            // ready (e.g. a card that was already in the field when
            // `uart.read` was signalled).
            self.pump_uart();
            // Drain the router first: the MCU services queued events before
            // sleeping.
            let mut route_cost = CpuCost::ZERO;
            if let Some(ev) = self.router.next(&mut route_cost) {
                self.charge_cpu(route_cost);
                self.dispatch(ev);
                continue;
            }
            // Router idle: wake at the next deferred completion.
            match self.sched.pop() {
                Some(entry) => {
                    if entry.at > self.now {
                        self.now = entry.at;
                    }
                    self.resolve_deferred(entry.event);
                }
                None => break,
            }
        }
        std::mem::take(&mut self.completed)
    }

    fn charge_cpu(&mut self, cost: CpuCost) {
        let duration = self.avr.duration(cost);
        self.now += duration;
        self.cpu_meter.charge_j(self.avr.energy_over(duration));
    }

    fn resolve_deferred(&mut self, action: DeferredAction) {
        match action {
            DeferredAction::Post(ev) => self.router.post(ev),
            DeferredAction::TimerFired { slot, generation } => {
                if self.natives.timer_gen.get(&slot).copied() == Some(generation) {
                    self.router.post(RoutedEvent {
                        dst: Endpoint::Driver(slot),
                        event: ids::TIMER_FIRED,
                        args: Vec::new(),
                    });
                }
            }
            DeferredAction::UartTimeout { slot, generation } => {
                if self.natives.uart_reader == Some(slot) && self.natives.uart_rx_gen == generation
                {
                    self.router.post(RoutedEvent {
                        dst: Endpoint::Driver(slot),
                        event: errors::TIME_OUT,
                        args: Vec::new(),
                    });
                }
            }
        }
    }

    fn dispatch(&mut self, ev: RoutedEvent) {
        self.events_dispatched += 1;
        match ev.dst {
            Endpoint::Driver(slot) => self.dispatch_to_driver(slot, ev),
            Endpoint::Library(_) | Endpoint::Network => {
                // Library operations arrive via driver signals, not the
                // router; network events are consumed by upnp-core.
            }
        }
    }

    fn dispatch_to_driver(&mut self, slot: SlotId, ev: RoutedEvent) {
        let Some(driver) = self.manager.get_mut(slot) else {
            return; // Driver was removed while the event was queued.
        };
        if !driver.instance.has_handler(ev.event) {
            // Unhandled events are dropped; a pending op against a driver
            // with no matching handler resolves to "no value".
            self.resolve_pending_if_op(slot, ev.event);
            return;
        }
        let outcome = driver.instance.run_handler(ev.event, &ev.args);
        self.instructions_retired += outcome.instructions;
        self.charge_cpu(outcome.cost);

        for sig in outcome.signals {
            if sig.lib == libs::THIS {
                self.router.post(RoutedEvent {
                    dst: Endpoint::Driver(slot),
                    event: sig.event,
                    args: sig.args,
                });
            } else {
                let result = self
                    .natives
                    .handle(slot, sig.lib, sig.event, &sig.args, &mut self.hw);
                self.charge_cpu(result.cost);
                self.bus_meter.charge_j(result.bus_energy_j);
                for immediate in result.immediate {
                    self.router.post(immediate);
                }
                for (delay, action) in result.deferred {
                    self.defer(delay, action);
                }
            }
        }

        if let Some(value) = outcome.returned {
            self.resolve_pending(slot, Some(value));
        }

        if let Some(vm_error) = outcome.error {
            let error_event = map_vm_error(vm_error);
            // Do not recurse on errors raised by error handlers.
            if !(64..128).contains(&ev.event) {
                if let Some(event) = error_event {
                    self.router.post(RoutedEvent {
                        dst: Endpoint::Driver(slot),
                        event,
                        args: Vec::new(),
                    });
                }
            }
        }
    }

    /// Resolves the oldest pending op on `slot` with `value`.
    fn resolve_pending(&mut self, slot: SlotId, value: Option<ReturnValue>) {
        if let Some(idx) = self.pending.iter().position(|p| p.slot == slot) {
            let p = if self.pending[idx].kind == PendingKind::Stream {
                // Streams stay pending; each return produces one sample.
                let p = &self.pending[idx];
                CompletedOp {
                    token: p.token,
                    slot: p.slot,
                    kind: p.kind,
                    value,
                    at: self.now,
                }
            } else {
                let p = self.pending.remove(idx);
                CompletedOp {
                    token: p.token,
                    slot: p.slot,
                    kind: p.kind,
                    value,
                    at: self.now,
                }
            };
            self.completed.push(p);
        }
    }

    /// If the dispatched event was a remote op with no handler, resolve it
    /// with no value so callers are not left hanging.
    fn resolve_pending_if_op(&mut self, slot: SlotId, event: u8) {
        if matches!(event, ids::READ | ids::WRITE | ids::STREAM) {
            self.resolve_pending(slot, None);
        }
    }

    /// Cancels a pending stream (e.g. on remote stream-stop).
    pub fn cancel_pending(&mut self, token: OpToken) -> bool {
        let before = self.pending.len();
        self.pending.retain(|p| p.token != token);
        before != self.pending.len()
    }
}

/// Maps interpreter faults onto the paper's error-event vocabulary.
fn map_vm_error(e: VmError) -> Option<u8> {
    match e {
        VmError::OutOfRange => Some(errors::OUT_OF_RANGE),
        VmError::StackOverflow | VmError::StackUnderflow => Some(errors::STACK_OVERFLOW),
        VmError::DivideByZero => Some(errors::DIVIDE_BY_ZERO),
        VmError::GasExhausted => Some(errors::TIME_OUT),
        VmError::BadOpcode(_) | VmError::BadJump | VmError::BadSlot(_) => Some(errors::BUS_ERROR),
        VmError::NoHandler(_) => None,
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("now", &self.now)
            .field("drivers", &self.manager.installed())
            .field("router_queue", &self.router.len())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use upnp_bus::peripherals::{Bmp180, Id20La, Tmp36, BMP180_I2C_ADDR};
    use upnp_dsl::compile_source;
    use upnp_dsl::drivers;

    #[test]
    fn tmp36_read_roundtrip() {
        let mut rt = Runtime::new(42);
        rt.hw.env.temperature_c = 31.0;
        rt.hw.analog_sources.insert(0, Box::new(Tmp36::new()));
        let image = compile_source(drivers::TMP36, 0xad1c_be01).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();

        let token = rt.request(slot, PendingKind::Read, vec![]);
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, token);
        let Some(ReturnValue::Scalar(v)) = done[0].value else {
            panic!("expected scalar: {:?}", done[0].value);
        };
        let temp = v.as_f32();
        assert!((temp - 31.0).abs() < 1.5, "temperature {temp}");
        // Virtual time advanced (ADC conversion + handler execution).
        assert!(rt.now() > SimTime::ZERO);
        assert!(rt.cpu_energy_j() > 0.0);
        assert!(rt.bus_energy_j() > 0.0);
    }

    #[test]
    fn rfid_card_read_via_uart() {
        let mut rt = Runtime::new(43);
        rt.hw.uart_device = Some(Box::new(Id20La::new()));
        let image = compile_source(drivers::ID20LA, 0xed3f_0ac1).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();

        let token = rt.request(slot, PendingKind::Read, vec![]);
        rt.run_until_idle();
        // Present a card; the runtime pumps the UART.
        rt.hw.env.present_card("0415AB09CD");
        rt.pump_uart();
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1, "one read completion");
        assert_eq!(done[0].token, token);
        let Some(ReturnValue::Array(_, cells)) = &done[0].value else {
            panic!("expected array: {:?}", done[0].value);
        };
        let text: Vec<u8> = cells.iter().map(|c| c.as_i32() as u8).collect();
        assert_eq!(&text[..10], b"0415AB09CD");
    }

    #[test]
    fn uart_timeout_fires_without_data() {
        let mut rt = Runtime::new(44);
        rt.hw.uart_device = Some(Box::new(Id20La::new()));
        let image = compile_source(drivers::ID20LA, 0xed3f_0ac1).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        rt.request(slot, PendingKind::Read, vec![]);
        // No card presented: the timeout error handler must run and clear
        // the driver's busy flag (scalar slot 1 = busy).
        rt.run_until_idle();
        let busy = rt.manager.get(slot).unwrap().instance.scalar(1).unwrap();
        assert_eq!(busy.as_i32(), 0, "timeOut handler must clear busy");
    }

    #[test]
    fn bmp180_full_pressure_read() {
        let mut rt = Runtime::new(45);
        rt.hw.env.temperature_c = 22.5;
        rt.hw.env.pressure_pa = 99_800.0;
        rt.hw
            .i2c
            .attach(BMP180_I2C_ADDR, Box::new(Bmp180::noiseless(9)));
        let image = compile_source(drivers::BMP180, 0xed3f_bda1).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle(); // init reads the calibration EEPROM

        let token = rt.request(slot, PendingKind::Read, vec![]);
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, token);
        let Some(ReturnValue::Scalar(p)) = done[0].value else {
            panic!("expected pressure, got {:?}", done[0].value);
        };
        let pa = p.as_i32();
        assert!((pa - 99_800).abs() <= 20, "pressure {pa} Pa");
        // The conversion waits (2 × 5 ms timers) must show in virtual time.
        assert!(rt.now() >= SimTime::ZERO + SimDuration::from_millis(10));
    }

    #[test]
    fn remove_driver_fires_destroy() {
        let mut rt = Runtime::new(46);
        let src = "\
import uart;
event init():
    signal uart.init(9600, 0, 1, 8);
event destroy():
    signal uart.reset();
";
        let image = compile_source(src, 7).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        assert!(rt.hw.uart.in_use());
        rt.remove_driver(slot);
        assert!(!rt.hw.uart.in_use(), "destroy must reset the uart");
        assert_eq!(rt.manager.installed(), 0);
    }

    #[test]
    fn read_on_driver_without_read_handler_resolves_empty() {
        let mut rt = Runtime::new(47);
        let image = compile_source(
            "event init():\n    return;\nevent destroy():\n    return;\n",
            9,
        )
        .unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        let token = rt.request(slot, PendingKind::Read, vec![]);
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, token);
        assert_eq!(done[0].value, None);
    }

    #[test]
    fn divide_by_zero_routes_error_event() {
        let mut rt = Runtime::new(48);
        let src = "\
int32_t x, y, crashes;
event init():
    return;
event destroy():
    return;
event read():
    x = 10 / y;
    return x;
error divideByZero():
    crashes = crashes + 1;
";
        let image = compile_source(src, 10).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        rt.request(slot, PendingKind::Read, vec![]);
        rt.run_until_idle();
        let crashes = rt.manager.get(slot).unwrap().instance.scalar(2).unwrap();
        assert_eq!(crashes.as_i32(), 1, "divideByZero handler must run");
    }

    #[test]
    fn stream_stays_pending_and_produces_multiple_samples() {
        let mut rt = Runtime::new(49);
        rt.hw.env.temperature_c = 25.0;
        rt.hw.analog_sources.insert(0, Box::new(Tmp36::new()));
        let src = "\
import adc;
float t;
event init():
    signal adc.init();
event destroy():
    return;
event stream():
    signal adc.read();
event sampleDone(uint16_t r):
    t = ((r * 3.3) / 1023.0 - 0.5) * 100.0;
    return t;
";
        let image = compile_source(src, 11).unwrap();
        let slot = rt.install_driver(image, 0).unwrap();
        rt.run_until_idle();
        let token = rt.request(slot, PendingKind::Stream, vec![]);
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].kind, PendingKind::Stream);
        // Trigger another sample: the stream op is still pending.
        rt.post_event(slot, ids::STREAM, vec![]);
        let done = rt.run_until_idle();
        assert_eq!(done.len(), 1, "stream produces another sample");
        assert!(rt.cancel_pending(token));
        assert!(!rt.cancel_pending(token));
    }

    #[test]
    fn virtual_time_is_deterministic() {
        let run = || {
            let mut rt = Runtime::new(50);
            rt.hw.env.temperature_c = 25.0;
            rt.hw.analog_sources.insert(0, Box::new(Tmp36::new()));
            let image = compile_source(drivers::TMP36, 1).unwrap();
            let slot = rt.install_driver(image, 0).unwrap();
            rt.run_until_idle();
            rt.request(slot, PendingKind::Read, vec![]);
            rt.run_until_idle();
            (rt.now(), rt.stats())
        };
        assert_eq!(run(), run());
    }
}
