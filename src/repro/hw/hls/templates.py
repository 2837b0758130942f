"""HLS C++ source templates.

The code generator fills these templates to produce a Vivado-HLS project for
the accelerator.  The Monte-Carlo-dropout kernel follows Algorithm 1 of the
paper verbatim: a pipelined loop that compares a uniform random number (from
an LFSR) against the keep rate and multiplies surviving elements by the keep
rate.  The remaining kernels use the hls4ml-style streaming dataflow idiom.
"""

from __future__ import annotations

__all__ = [
    "HEADER_TEMPLATE",
    "MCD_LAYER_TEMPLATE",
    "DENSE_LAYER_TEMPLATE",
    "CONV_LAYER_TEMPLATE",
    "POOLING_LAYER_TEMPLATE",
    "RELU_LAYER_TEMPLATE",
    "TOP_FUNCTION_TEMPLATE",
    "MC_ENGINE_SPATIAL_TEMPLATE",
    "MC_ENGINE_TEMPORAL_TEMPLATE",
    "BUILD_TCL_TEMPLATE",
]

HEADER_TEMPLATE = """\
// Auto-generated by the multi-exit MCD BayesNN transformation framework.
// Target device : {device}
// Clock         : {clock_mhz:.1f} MHz
// Data type     : ap_fixed<{total_bits},{integer_bits}>
#ifndef {guard}
#define {guard}

#include <ap_fixed.h>
#include <hls_stream.h>

typedef ap_fixed<{total_bits},{integer_bits}> data_t;
typedef ap_fixed<{accum_bits},{accum_integer_bits}> accum_t;
typedef ap_uint<32> lfsr_t;

static const unsigned REUSE_FACTOR   = {reuse_factor};
static const unsigned N_MC_SAMPLES   = {num_mc_samples};
static const unsigned N_MC_ENGINES   = {num_engines};
static const float    DROPOUT_RATE   = {dropout_rate}f;
static const float    KEEP_RATE      = {keep_rate}f;

#endif // {guard}
"""

MCD_LAYER_TEMPLATE = """\
// Monte-Carlo dropout layer (Algorithm 1 of the paper).
// A Galois LFSR supplies the uniform random numbers; the multiplexer keeps
// or zeroes each element and the survivors are scaled by the keep rate.
static inline lfsr_t lfsr_step(lfsr_t state) {{
#pragma HLS INLINE
    return (state >> 1) ^ (-(state & 1u) & 0x80200003u);
}}

template<unsigned SIZE>
void mc_dropout_{name}(data_t input[SIZE], data_t output[SIZE], lfsr_t &lfsr_state) {{
    data_t keep_rate = (data_t){keep_rate};
MCD_LOOP_{name}:
    for (unsigned i = 0; i < SIZE; i++) {{
#pragma HLS PIPELINE II=1
        data_t temp = input[i];
        lfsr_state = lfsr_step(lfsr_state);
        float uniform_random = (float)lfsr_state / 4294967296.0f;
        if (uniform_random > (float)keep_rate) {{
            temp = 0;
        }}
        output[i] = temp * keep_rate;
    }}
}}
"""

DENSE_LAYER_TEMPLATE = """\
// Fully-connected layer: {name} ({in_size} -> {out_size})
void dense_{name}(data_t input[{in_size}], data_t output[{out_size}],
                  const data_t weights[{in_size}][{out_size}],
                  const data_t bias[{out_size}]) {{
#pragma HLS ARRAY_PARTITION variable=weights cyclic factor={partition_factor} dim=1
DENSE_OUT_{name}:
    for (unsigned o = 0; o < {out_size}; o++) {{
        accum_t acc = bias[o];
DENSE_IN_{name}:
        for (unsigned i = 0; i < {in_size}; i++) {{
#pragma HLS PIPELINE II={reuse_factor}
            acc += (accum_t)input[i] * (accum_t)weights[i][o];
        }}
        output[o] = (data_t)acc;
    }}
}}
"""

CONV_LAYER_TEMPLATE = """\
// 2-D convolution layer: {name}
// input  : {in_channels} x {in_height} x {in_width}
// output : {out_channels} x {out_height} x {out_width}, kernel {kernel}x{kernel}, stride {stride}, pad {padding}
void conv2d_{name}(data_t input[{in_channels}][{in_height}][{in_width}],
                   data_t output[{out_channels}][{out_height}][{out_width}],
                   const data_t weights[{out_channels}][{in_channels}][{kernel}][{kernel}],
                   const data_t bias[{out_channels}]) {{
CONV_OC_{name}:
    for (unsigned oc = 0; oc < {out_channels}; oc++) {{
CONV_OH_{name}:
        for (unsigned oh = 0; oh < {out_height}; oh++) {{
CONV_OW_{name}:
            for (unsigned ow = 0; ow < {out_width}; ow++) {{
#pragma HLS PIPELINE II={reuse_factor}
                accum_t acc = bias[oc];
                for (unsigned ic = 0; ic < {in_channels}; ic++) {{
                    for (unsigned kh = 0; kh < {kernel}; kh++) {{
                        for (unsigned kw = 0; kw < {kernel}; kw++) {{
                            int ih = (int)(oh * {stride}) + (int)kh - {padding};
                            int iw = (int)(ow * {stride}) + (int)kw - {padding};
                            if (ih >= 0 && ih < {in_height} && iw >= 0 && iw < {in_width}) {{
                                acc += (accum_t)input[ic][ih][iw]
                                     * (accum_t)weights[oc][ic][kh][kw];
                            }}
                        }}
                    }}
                }}
                output[oc][oh][ow] = (data_t)acc;
            }}
        }}
    }}
}}
"""

POOLING_LAYER_TEMPLATE = """\
// max pooling layer: {name} ({channels} x {in_height} x {in_width} -> {channels} x {out_height} x {out_width})
void max_pool_{name}(data_t input[{channels}][{in_height}][{in_width}],
                        data_t output[{channels}][{out_height}][{out_width}]) {{
POOL_C_{name}:
    for (unsigned c = 0; c < {channels}; c++) {{
POOL_H_{name}:
        for (unsigned oh = 0; oh < {out_height}; oh++) {{
POOL_W_{name}:
            for (unsigned ow = 0; ow < {out_width}; ow++) {{
#pragma HLS PIPELINE II=1
                data_t best = input[c][oh * {pool_size}][ow * {pool_size}];
                for (unsigned kh = 0; kh < {pool_size}; kh++) {{
                    for (unsigned kw = 0; kw < {pool_size}; kw++) {{
                        data_t v = input[c][oh * {pool_size} + kh][ow * {pool_size} + kw];
                        if (v > best) best = v;
                    }}
                }}
                output[c][oh][ow] = best;
            }}
        }}
    }}
}}
"""

RELU_LAYER_TEMPLATE = """\
// ReLU activation: {name}
template<unsigned SIZE>
void relu_{name}(data_t input[SIZE], data_t output[SIZE]) {{
RELU_LOOP_{name}:
    for (unsigned i = 0; i < SIZE; i++) {{
#pragma HLS PIPELINE II=1
        output[i] = input[i] > (data_t)0 ? input[i] : (data_t)0;
    }}
}}
"""

MC_ENGINE_SPATIAL_TEMPLATE = """\
// Spatial mapping: {num_engines} MC engines run in parallel, each producing
// one MC sample from a clone of the cached deterministic tensor.
MC_SPATIAL:
    for (unsigned e = 0; e < N_MC_ENGINES; e++) {{
#pragma HLS UNROLL
        mc_engine(cached_tensor, mc_outputs[e], lfsr_states[e]);
    }}
"""

MC_ENGINE_TEMPORAL_TEMPLATE = """\
// Temporal mapping: a single shared MC engine processes the cloned tensors
// one after another ({passes_per_engine} passes per engine).
MC_TEMPORAL:
    for (unsigned s = 0; s < N_MC_SAMPLES; s++) {{
        mc_engine(cached_tensor, mc_outputs[s], lfsr_states[0]);
    }}
"""

TOP_FUNCTION_TEMPLATE = """\
#include "parameters.h"
#include "layers.h"
#include "mcd_layers.h"

// Top-level accelerator for {model_name}
//   deterministic layers : {num_deterministic}
//   Bayesian layers      : {num_bayesian} ({num_mcd} MC-dropout)
//   mapping              : {mapping_strategy} ({num_engines} engine(s), {passes_per_engine} pass(es) each)
void {top_name}(data_t input[{input_size}],
                data_t mc_outputs[{num_outputs}][{output_size}]) {{
#pragma HLS INTERFACE ap_ctrl_hs port=return
#pragma HLS DATAFLOW

    static lfsr_t lfsr_states[{num_engines}] = {{{lfsr_seeds}}};
    data_t cached_tensor[{cache_size}];
#pragma HLS ARRAY_PARTITION variable=cached_tensor cyclic factor={num_engines}

    // ---- deterministic (non-Bayesian) component: run once, result cached
    deterministic_body(input, cached_tensor);

    // ---- Bayesian component: cached tensor cloned into {num_outputs} MC samples
{mc_dispatch}
}}
"""

BUILD_TCL_TEMPLATE = """\
# Auto-generated Vivado-HLS project script
open_project {project_name}
set_top {top_name}
add_files top.cpp
add_files -tb testbench.cpp
open_solution "solution1"
set_part {{{part}}}
create_clock -period {clock_period_ns:.2f} -name default
csynth_design
export_design -format ip_catalog
exit
"""
