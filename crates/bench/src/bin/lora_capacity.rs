//! Reproduces the §5.2 workload arithmetic (experiment T-SF): airtime and
//! duty-cycle-limited message rate for the BcWAN frame across spreading
//! factors. The paper quotes "a theoretical maximum of 183 messages per
//! sensor per hour" at SF7/1 % for 128 payload + 4 header bytes; the full
//! AN1200.13 airtime model lands at 163 msg/h for the same numbers (the
//! paper's figure matches the nominal-bitrate approximation — both rows
//! are printed).
//!
//! Usage: `lora_capacity [--json PATH]`.

use bcwan_bench::{harness_args, BenchReport};
use bcwan_lora::airtime::{max_messages_per_hour, time_on_air};
use bcwan_lora::params::{RadioConfig, SpreadingFactor, EU868_DUTY_CYCLE as DUTY};
use bcwan_sim::{Json, Registry};

fn main() {
    let json = harness_args().json;
    // The paper's frame: 128-byte payload + 4-byte length header.
    const PHY_LEN: usize = 132;

    let mut registry = Registry::new();
    let rows_counter = registry.counter("bench.rows_total");
    let misfit_counter = registry.counter("lora.payload_cap_violations_total");

    let mut rows = Vec::new();
    let mut sf7 = (0.0, 0.0); // (nominal, AN1200.13) msgs/h at SF7
    println!("SF   airtime(ms)  msgs/h@1%  nominal-bps  nominal-msgs/h  fits");
    for sf in SpreadingFactor::ALL {
        let cfg = RadioConfig::with_sf(sf);
        let fits = PHY_LEN <= sf.max_payload() + 4;
        let airtime = time_on_air(&cfg, PHY_LEN);
        let per_hour = max_messages_per_hour(&cfg, PHY_LEN, DUTY);
        // Nominal-bitrate approximation (SF · BW / 2^SF · CR) the paper's
        // 183/h figure matches.
        let cr = 4.0 / (4.0 + cfg.coding_rate.denominator_offset() as f64);
        let bitrate =
            sf.value() as f64 * cfg.bandwidth.hz() as f64 / (1u64 << sf.value()) as f64 * cr;
        let nominal_airtime = (PHY_LEN * 8) as f64 / bitrate;
        let nominal_per_hour = 3600.0 * DUTY / nominal_airtime;
        if sf == SpreadingFactor::Sf7 {
            sf7 = (nominal_per_hour, per_hour);
        }
        println!(
            "SF{:<2} {:>10.1}  {:>9.1}  {:>11.0}  {:>14.1}  {}",
            sf.value(),
            airtime.as_secs_f64() * 1e3,
            per_hour,
            bitrate,
            nominal_per_hour,
            if fits { "yes" } else { "NO (payload cap)" },
        );
        registry.inc(rows_counter);
        if !fits {
            registry.inc(misfit_counter);
        }
        rows.push(
            Json::object()
                .with("spreading_factor", Json::num(sf.value()))
                .with("airtime_ms", Json::num(airtime.as_secs_f64() * 1e3))
                .with("max_per_hour_duty1pct", Json::num(per_hour))
                .with("nominal_bitrate_bps", Json::num(bitrate))
                .with("nominal_per_hour", Json::num(nominal_per_hour))
                .with("fits_payload", Json::Bool(fits)),
        );
    }
    println!();
    println!("paper (§5.2): \"theoretical maximum of 183 messages per sensor per hour\" at SF7/1%");
    println!(
        "nominal-bitrate model gives {:.0}/h, full AN1200.13 model {:.0}/h — same order, see EXPERIMENTS.md",
        sf7.0, sf7.1
    );
    if let Some(path) = json {
        BenchReport::new("lora_capacity")
            .config("phy_len_bytes", Json::size(PHY_LEN))
            .config("duty_cycle", Json::num(DUTY))
            .rows(Json::Array(rows))
            .metrics(registry.snapshot())
            .write(&path)
            .expect("write json");
        eprintln!("wrote {path}");
    }
}
