module dcvalidate/benchmark

go 1.22

require dcvalidate v0.0.0

replace dcvalidate => ../
